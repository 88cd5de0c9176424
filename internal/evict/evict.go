// Package evict is the one eviction order behind every bounded store in
// the daemon: the servecache result memo, the onesd run table and the
// trace buffer each keep their evictable keys in a Queue and drop what
// its Sweep hands back.
package evict

import (
	"container/list"
	"time"
)

// Queue orders keys from least to most recently touched, each stamped
// with the time of its last Touch. An owner stamps from one clock, so
// stamps never decrease along the queue and the expired keys are always
// its oldest end. The zero value is an empty queue. Not
// safe for concurrent use: the owning store guards it with its own lock.
type Queue[K comparable] struct {
	order list.List // *item[K], oldest at the front
	index map[K]*list.Element
}

type item[K comparable] struct {
	key K
	at  time.Time
}

// Touch adds k at the newest end of the queue, or moves it there if it
// is already queued, stamped t.
func (q *Queue[K]) Touch(k K, t time.Time) {
	if el, ok := q.index[k]; ok {
		el.Value.(*item[K]).at = t
		q.order.MoveToBack(el)
		return
	}
	if q.index == nil {
		q.index = make(map[K]*list.Element)
	}
	q.index[k] = q.order.PushBack(&item[K]{key: k, at: t})
}

// Remove drops k from the queue (a no-op if it is not queued).
func (q *Queue[K]) Remove(k K) {
	if el, ok := q.index[k]; ok {
		q.order.Remove(el)
		delete(q.index, k)
	}
}

// Sweep pops keys from the oldest end and hands each to evict with its
// reason: first every key idle for at least ttl ("ttl"), then keys while
// size > max ("cap"). size is the owner's whole store, queued or not,
// and drops by one per eviction; items the owner never queued (in-flight
// work) are pinned and can hold the store over max once the queue is
// empty. ttl ≤ 0 or max ≤ 0 disables that bound. Returns the number of
// keys evicted.
func (q *Queue[K]) Sweep(now time.Time, ttl time.Duration, max, size int, evict func(k K, reason string)) int {
	n := 0
	pop := func(reason string) {
		it := q.order.Remove(q.order.Front()).(*item[K])
		delete(q.index, it.key)
		size--
		n++
		evict(it.key, reason)
	}
	for ttl > 0 && q.order.Len() > 0 && now.Sub(q.order.Front().Value.(*item[K]).at) >= ttl {
		pop("ttl")
	}
	for max > 0 && size > max && q.order.Len() > 0 {
		pop("cap")
	}
	return n
}
