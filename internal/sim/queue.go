// Allocation-free engine containers: growable ring FIFOs that retain their
// backing arrays across drains, and fixed-horizon timing wheels for delayed
// events. Together these turn the per-cycle cost of the engine from
// O(topology) into O(pending work) while keeping the steady-state loop free
// of heap allocations.

package sim

import "math"

// ring is a growable circular FIFO. Unlike an append/reslice queue it keeps
// its backing array when drained, so a queue that has reached its
// steady-state high-water mark never allocates again. The backing array is
// always a power of two (grow doubles from 8), so index wrapping is a mask
// instead of a modulo — integer division was a top-five line in the
// saturated-load profile before the switch.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

//sim:hot
func (r *ring[T]) len() int { return r.n }

//sim:hot
func (r *ring[T]) empty() bool { return r.n == 0 }

//sim:hot
func (r *ring[T]) front() T { return r.buf[r.head] }

// at returns the i-th element from the front (0 = front).
//
//sim:hot
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

//sim:hot
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop deliberately leaves the vacated slot's contents in place: every ring
// element type in the engine (flit, *packet, *cbPacket) references
// only freelist-pooled objects that live for the whole run, so there is
// nothing for the GC to reclaim and the per-pop clear would be a pure dead
// store — millions of them per saturated run.
//
//sim:hot
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	if r.n == 0 {
		r.head = 0
	}
	return v
}

//sim:hot
func (r *ring[T]) grow() {
	//detlint:allow hotalloc amortised doubling; capacity is retained for the run and steady state never grows
	nb := make([]T, max(2*len(r.buf), 8)) // always a power of two: wrap stays mask-friendly
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}

// wheel is a timing wheel with an overflow list: an event scheduled for
// absolute cycle `at` within the horizon lands in bucket at%len(buckets) and
// is drained when the clock reaches it; an event at or beyond the horizon is
// parked in the overflow list and migrated into its bucket once the clock
// gets close enough. The horizon is therefore a fast-path size hint, not a
// correctness bound — long delays (reconfiguration, failure injection, a
// skip landing far in the future) degrade to a small linear scan instead of
// panicking or silently wrapping one horizon early. schedule still panics on
// events at or before `now`: those are bugs, not long delays. Bucket slices
// retain capacity across reuse. The bucket count is rounded up to a power of
// two so the per-event bucket map is a mask, like the rings.
type wheel[T any] struct {
	buckets  [][]T
	overflow []wheelEvent[T]
	pending  int
	peak     int
}

// wheelEvent is an overflow entry: an event plus its absolute due cycle.
type wheelEvent[T any] struct {
	at int64
	v  T
}

func newWheel[T any](horizon int64) *wheel[T] {
	return &wheel[T]{buckets: make([][]T, wheelSize(horizon))}
}

// wheelSize is the bucket count of a wheel with the given horizon: the
// smallest power of two >= max(horizon, 2).
func wheelSize(horizon int64) int64 {
	n := int64(2)
	for n < horizon {
		n *= 2
	}
	return n
}

// reset drops every pending event and the depth telemetry, keeping bucket
// capacity; see Sim.reset.
func (w *wheel[T]) reset() {
	for b := range w.buckets {
		clear(w.buckets[b]) // release references held by undelivered events
		w.buckets[b] = w.buckets[b][:0]
	}
	clear(w.overflow)
	w.overflow = w.overflow[:0]
	w.pending, w.peak = 0, 0
}

//sim:hot
func (w *wheel[T]) schedule(now, at int64, v T) {
	if at <= now {
		panic("sim: wheel event scheduled at or before now")
	}
	w.pending++
	if w.pending > w.peak {
		w.peak = w.pending
	}
	if at >= now+int64(len(w.buckets)) {
		//detlint:allow hotalloc overflow list is amortised like a ring; the per-run horizon fast path never reaches it
		w.overflow = append(w.overflow, wheelEvent[T]{at: at, v: v})
		return
	}
	b := at & int64(len(w.buckets)-1)
	w.buckets[b] = append(w.buckets[b], v)
}

// take removes and returns the events due at cycle `now`. The returned slice
// aliases the bucket's backing array, which is immediately reusable for
// future cycles — callers must finish iterating (and clear element
// references) before the wheel can revisit the same bucket, which is
// guaranteed within one cycle's processing. Overflow entries that have come
// within the horizon are migrated to their buckets first (entries due
// exactly now are appended to the returned slice), so a clock that jumps
// forward — the calendar's skip — still observes every event at its due
// cycle.
//
//sim:hot
func (w *wheel[T]) take(now int64) []T {
	if len(w.overflow) > 0 {
		w.migrate(now)
	}
	b := now & int64(len(w.buckets)-1)
	evs := w.buckets[b]
	w.buckets[b] = evs[:0]
	w.pending -= len(evs)
	return evs
}

// migrate moves overflow entries that are now within the horizon into their
// buckets. Cold path: only reached while overflow entries exist, but it sits
// on take's call graph so it keeps the zero-alloc contract (self-append
// recycling only).
//
//sim:hot
func (w *wheel[T]) migrate(now int64) {
	h := int64(len(w.buckets))
	keep := w.overflow[:0]
	for _, e := range w.overflow {
		if e.at < now {
			panic("sim: wheel overflow event expired undelivered")
		}
		if e.at < now+h {
			b := e.at & (h - 1)
			w.buckets[b] = append(w.buckets[b], e.v)
		} else {
			keep = append(keep, e)
		}
	}
	tail := w.overflow[len(keep):]
	for i := range tail {
		var zero wheelEvent[T]
		tail[i] = zero // release references held by migrated slots
	}
	w.overflow = keep
}

// nextDue returns the earliest cycle strictly after `now` at which a pending
// event fires, or math.MaxInt64 when the wheel is empty. O(horizon +
// overflow) and allocation-free; called only at skip decisions, when the
// rest of the engine is idle.
//
//sim:hot
func (w *wheel[T]) nextDue(now int64) int64 {
	if w.pending == 0 {
		return math.MaxInt64
	}
	h := int64(len(w.buckets))
	next := int64(math.MaxInt64)
	for b := int64(0); b < h; b++ {
		if len(w.buckets[b]) == 0 {
			continue
		}
		// The unique cycle in (now, now+h) that maps to bucket b.
		at := now + 1 + (((b-(now+1))%h)+h)%h
		if at < next {
			next = at
		}
	}
	for _, e := range w.overflow {
		if e.at < next {
			next = e.at
		}
	}
	return next
}
