package evict

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

// at returns t0 advanced by s seconds.
func at(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }

// sweep runs q.Sweep and returns the evictions as "key:reason" strings.
func sweep(q *Queue[string], now time.Time, ttl time.Duration, max, size int) []string {
	var got []string
	n := q.Sweep(now, ttl, max, size, func(k, reason string) { got = append(got, k+":"+reason) })
	if n != len(got) {
		panic(fmt.Sprintf("Sweep returned %d, evicted %d", n, len(got)))
	}
	return got
}

func TestTouchMovesToNewest(t *testing.T) {
	var q Queue[string]
	for i, k := range []string{"a", "b", "c"} {
		q.Touch(k, at(i))
	}
	q.Touch("a", at(3))
	if len(q.index) != 3 {
		t.Fatalf("Len = %d, want 3 (re-touch must not duplicate)", len(q.index))
	}
	got := sweep(&q, at(3), 0, 1, 3)
	if want := []string{"b:cap", "c:cap"}; !slices.Equal(got, want) {
		t.Fatalf("evicted %v, want %v", got, want)
	}
}

func TestExpiredBeforeCap(t *testing.T) {
	var q Queue[string]
	q.Touch("a", at(0))
	q.Touch("b", at(10))
	q.Touch("c", at(50))
	q.Touch("d", at(60))
	// At t=70 with a 60 s TTL only a and b are expired (a's age is
	// exactly the TTL); then the cap of 1 takes c, and d stays.
	got := sweep(&q, at(70), time.Minute, 1, 4)
	if want := []string{"a:ttl", "b:ttl", "c:cap"}; !slices.Equal(got, want) {
		t.Fatalf("evicted %v, want %v", got, want)
	}
	if len(q.index) != 1 {
		t.Fatalf("Len = %d, want 1", len(q.index))
	}
}

func TestPinnedItemsHoldStoreOverCap(t *testing.T) {
	var q Queue[string]
	q.Touch("a", at(0))
	q.Touch("b", at(1))
	// The store holds 5 items, 3 of them pinned (never queued): with a
	// cap of 2 every queued key goes and the store stays at 3.
	if got := sweep(&q, at(1), 0, 2, 5); !slices.Equal(got, []string{"a:cap", "b:cap"}) {
		t.Fatalf("evicted %v, want both queued keys", got)
	}
	if len(q.index) != 0 {
		t.Fatalf("Len = %d, want 0", len(q.index))
	}
	if got := sweep(&q, at(1), 0, 2, 3); len(got) != 0 {
		t.Fatalf("empty queue evicted %v", got)
	}
}

func TestRemove(t *testing.T) {
	var q Queue[string]
	q.Remove("absent") // no-op on an empty queue
	q.Touch("a", at(0))
	q.Touch("b", at(1))
	q.Remove("a")
	q.Remove("a")
	if len(q.index) != 1 {
		t.Fatalf("Len = %d, want 1", len(q.index))
	}
	if got := sweep(&q, at(100), time.Second, 0, 1); !slices.Equal(got, []string{"b:ttl"}) {
		t.Fatalf("evicted %v, want only b", got)
	}
	q.Touch("a", at(200)) // a removed key can be queued again
	if len(q.index) != 1 {
		t.Fatalf("Len = %d, want 1", len(q.index))
	}
}

func TestZeroLimitsEvictNothing(t *testing.T) {
	var q Queue[string]
	for i := 0; i < 10; i++ {
		q.Touch(fmt.Sprint(i), at(i))
	}
	if got := sweep(&q, at(1_000_000), 0, 0, 10); len(got) != 0 {
		t.Fatalf("zero limits evicted %v", got)
	}
	if got := sweep(&q, at(1_000_000), -time.Second, -1, 10); len(got) != 0 {
		t.Fatalf("negative limits evicted %v", got)
	}
	if len(q.index) != 10 {
		t.Fatalf("Len = %d, want 10", len(q.index))
	}
}
