// Package registry is the one name → value table behind every
// flag-facing name in the suite: schedulers, scenarios, autoscaler
// policies and experiments each declare a Registry and fill it from
// init. Registration is rare and start-up only; lookups are concurrent.
package registry

import (
	"fmt"
	"sort"
	"sync"
)

// Registry maps names to values of one kind. The zero value is not
// usable; build one with New. Safe for concurrent use.
type Registry[T any] struct {
	owner   string // panic-message prefix: the owning package
	unknown error  // the owner's sentinel, wrapped by Get

	mu     sync.RWMutex
	byName map[string]T
	order  []string // registration order
}

// New returns an empty registry. owner prefixes registration panics
// ("schedulers", "scenario", …); Get wraps unknown for absent names, so
// callers match the owner's sentinel with errors.Is.
func New[T any](owner string, unknown error) *Registry[T] {
	return &Registry[T]{owner: owner, unknown: unknown, byName: make(map[string]T)}
}

// Register adds v under name. An empty or already-registered name
// panics: two entries silently shadowing each other would corrupt
// experiments.
func (r *Registry[T]) Register(name string, v T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if name == "" {
		panic(r.owner + ": Register with empty name")
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("%s: duplicate registration of %q — two entries would silently shadow each other and corrupt experiments; pick a distinct name", r.owner, name))
	}
	r.byName[name] = v
	r.order = append(r.order, name)
}

// Lookup returns the value registered under name.
func (r *Registry[T]) Lookup(name string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.byName[name]
	return v, ok
}

// Get returns the value registered under name, or an error wrapping the
// owner's sentinel and listing the known names.
func (r *Registry[T]) Get(name string) (T, error) {
	if v, ok := r.Lookup(name); ok {
		return v, nil
	}
	var zero T
	return zero, fmt.Errorf("%w %q (known: %v)", r.unknown, name, r.Names())
}

// Names returns the registered names, sorted.
func (r *Registry[T]) Names() []string {
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// All returns the registered values in registration order.
func (r *Registry[T]) All() []T {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]T, len(r.order))
	for i, name := range r.order {
		out[i] = r.byName[name]
	}
	return out
}
