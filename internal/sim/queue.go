// Allocation-free engine containers: fixed-capacity flit FIFOs in slabs New
// sizes once, each to the bound of the hardware queue it models, and
// fixed-horizon timing wheels for delayed events. Together these turn the
// per-cycle cost of the engine from O(topology) into O(pending work) while
// keeping the steady-state loop free of heap allocations. The queues whose
// elements are packets thread them instead: a NIC's packets link through
// packet.qnext and a central buffer's records through cbPacket.qnext.

package sim

import "math"

// slabPos is the slab index of element i (0 = front) of a fixed-capacity
// FIFO at slab[off:off+cap] whose front is at off+head. With head and i
// below cap the wrap is a compare: capacities are not powers of two.
//
//sim:hot
func slabPos(off, head, i, cap int32) int32 {
	if head += i; head >= cap {
		head -= cap
	}
	return off + head
}

// fifo is a fixed-capacity flit FIFO at slab[off:off+size] whose front is
// at off+head: an elastic lane's stall FIFO (Sim.stall), sized by New to the
// lane's pipeline slots. A push past capacity panics, like deliver's input
// buffer overflow check: the slots are the lane's whole flow-control budget,
// so an overflow is an engine bug, not backpressure.
type fifo struct {
	off, size int32 // fixed by New
	head, n   int32
}

//sim:hot
func (q *fifo) push(slab []flit, f flit) {
	if q.n == q.size {
		panic("sim: stall FIFO overflow")
	}
	slab[slabPos(q.off, q.head, q.n, q.size)] = f
	q.n++
}

//sim:hot
func (q *fifo) pop(slab []flit) flit {
	f := slab[q.off+q.head]
	if q.head++; q.head == q.size {
		q.head = 0
	}
	q.n--
	return f
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
// two so the per-event bucket map is a mask.
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
		//detlint:allow hotalloc overflow list is amortised self-append; the per-run horizon fast path never reaches it
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
