package schedulers

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/simulator"
)

func TestNewUnknownSchedulerListsKnownNames(t *testing.T) {
	_, err := New("no-such-policy", Config{})
	if err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"no-such-policy"`) {
		t.Errorf("error does not name the missing scheduler: %v", err)
	}
	for _, known := range []string{"ones", "drl", "tiresias", "optimus", "fifo", "sjf"} {
		if !strings.Contains(msg, known) {
			t.Errorf("error does not list known scheduler %q: %v", known, err)
		}
	}
}

func TestRegistryBuildsEveryKnownName(t *testing.T) {
	for _, name := range Factories.Names() {
		s, err := New(name, Config{Seed: 1, ArrivalRate: 0.1, Population: 4})
		if err != nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if s == nil || s.Name() == "" {
			t.Errorf("New(%q) built an unusable scheduler %v", name, s)
		}
	}
}

func mustPanicRegistering(t *testing.T, why, name string, f Factory) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: Register did not panic", why)
		}
	}()
	Register(name, f)
}

func TestRegisterDuplicatePanics(t *testing.T) {
	mustPanicRegistering(t, "duplicate name", "ones",
		func(cfg Config) simulator.Scheduler { return NewFIFO() })
}

func TestRegisterDuplicatePanicMessageIsActionable(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate Register did not panic")
		}
		msg, _ := r.(string)
		if !strings.Contains(msg, `"ones"`) || !strings.Contains(msg, "duplicate") {
			t.Errorf("panic message does not name the clash: %q", msg)
		}
	}()
	Register("ones", func(cfg Config) simulator.Scheduler { return NewFIFO() })
}

func TestNewWrapsTypedSentinel(t *testing.T) {
	_, err := New("no-such-policy", Config{})
	if !errors.Is(err, ErrUnknown) {
		t.Errorf("New error does not wrap ErrUnknown: %v", err)
	}
}

func TestRegisterNilFactoryPanics(t *testing.T) {
	mustPanicRegistering(t, "nil factory", "nil-factory", nil)
	if _, err := New("nil-factory", Config{}); err == nil {
		t.Error("rejected registration still resolvable")
	}
}

func TestRegisterEmptyNamePanics(t *testing.T) {
	mustPanicRegistering(t, "empty name", "",
		func(cfg Config) simulator.Scheduler { return NewFIFO() })
}

func TestRegistryConfigPlumbs(t *testing.T) {
	s, err := New("ones", Config{Seed: 3, ArrivalRate: 0.05, Population: 7, MutationRate: 0.25, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	o, ok := s.(*ONES)
	if !ok {
		t.Fatalf("factory for \"ones\" built %T", s)
	}
	if o.PopulationSize != 7 || o.MutationRate != 0.25 || o.Parallelism != 2 {
		t.Errorf("config not plumbed: pop=%d θ=%v par=%d", o.PopulationSize, o.MutationRate, o.Parallelism)
	}
}
