package registry

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var errUnknown = errors.New("test: unknown thing")

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q does not mention %q", msg, want)
		}
	}()
	f()
}

func TestRegisterRejectsEmptyAndDuplicate(t *testing.T) {
	r := New[int]("test", errUnknown)
	r.Register("a", 1)
	mustPanic(t, "empty name", func() { r.Register("", 2) })
	mustPanic(t, `duplicate registration of "a"`, func() { r.Register("a", 3) })
	if v, _ := r.Lookup("a"); v != 1 {
		t.Errorf("duplicate overwrote the first registration: %d", v)
	}
}

func TestGetWrapsSentinelAndListsNames(t *testing.T) {
	r := New[int]("test", errUnknown)
	r.Register("b", 2)
	r.Register("a", 1)
	if v, err := r.Get("b"); err != nil || v != 2 {
		t.Fatalf("Get(b) = %d, %v", v, err)
	}
	_, err := r.Get("zzz")
	if !errors.Is(err, errUnknown) {
		t.Fatalf("Get(zzz) = %v, want errUnknown", err)
	}
	if want := `test: unknown thing "zzz" (known: [a b])`; err.Error() != want {
		t.Errorf("Get(zzz) error = %q, want %q", err, want)
	}
}

func TestNamesSortedAllInRegistrationOrder(t *testing.T) {
	r := New[string]("test", errUnknown)
	for _, n := range []string{"c", "a", "b"} {
		r.Register(n, strings.ToUpper(n))
	}
	if got := r.Names(); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Errorf("Names() = %v, want sorted", got)
	}
	if got := r.All(); !slices.Equal(got, []string{"C", "A", "B"}) {
		t.Errorf("All() = %v, want registration order", got)
	}
}

// TestConcurrentRegisterAndRead: readers run alongside registrations;
// run under -race.
func TestConcurrentRegisterAndRead(t *testing.T) {
	r := New[int]("test", errUnknown)
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			r.Register(strconv.Itoa(i), i)
		}()
		go func() {
			defer wg.Done()
			r.Lookup(strconv.Itoa(i))
			_, _ = r.Get("missing")
			_ = r.All()
		}()
	}
	wg.Wait()
	if got := len(r.Names()); got != 8 {
		t.Errorf("registered %d names, want 8", got)
	}
}
