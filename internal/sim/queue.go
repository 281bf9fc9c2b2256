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

func (q *fifo) push(slab []flit, f flit) {
	if q.n == q.size {
		panic("sim: stall FIFO overflow")
	}
	slab[slabPos(q.off, q.head, q.n, q.size)] = f
	q.n++
}

func (q *fifo) pop(slab []flit) flit {
	f := slab[q.off+q.head]
	if q.head++; q.head == q.size {
		q.head = 0
	}
	q.n--
	return f
}

// wheel is a fixed-horizon timing wheel: an event scheduled for absolute
// cycle `at` lands in bucket at%len(buckets) and is drained when the clock
// reaches it. Every wheel is sized to the longest delay its events can
// have (credit returns: the longest wire; ejections: the direct router
// delay; arrivals: arrivalHorizon), so schedule panics on an event at or
// beyond the horizon, as it does on one at or before `now`: both are
// engine bugs. Bucket slices retain capacity across reuse; the events are
// pointer-free values (flits, arrivals, credit returns), so the stale
// entries past a bucket's length keep nothing alive. The bucket count is
// rounded up to a power of two so the per-event bucket map is a mask.
type wheel[T any] struct {
	buckets [][]T
	pending int
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

// reset drops every pending event, keeping bucket capacity; see Sim.reset.
func (w *wheel[T]) reset() {
	for b := range w.buckets {
		w.buckets[b] = w.buckets[b][:0]
	}
	w.pending = 0
}

func (w *wheel[T]) schedule(now, at int64, v T) {
	if at <= now {
		panic("sim: wheel event scheduled at or before now")
	}
	if at >= now+int64(len(w.buckets)) {
		panic("sim: wheel event scheduled beyond the horizon")
	}
	w.pending++
	b := at & int64(len(w.buckets)-1)
	w.buckets[b] = append(w.buckets[b], v)
}

// take removes and returns the events due at cycle `now`. The returned slice
// aliases the bucket's backing array, which is immediately reusable for
// future cycles — callers must finish iterating before the wheel can
// revisit the same bucket, which is guaranteed within one cycle's
// processing. A clock that jumps forward — the calendar's skip — still
// observes every event at its due cycle: it never jumps past a wheel's
// nextDue.
func (w *wheel[T]) take(now int64) []T {
	b := now & int64(len(w.buckets)-1)
	evs := w.buckets[b]
	w.buckets[b] = evs[:0]
	w.pending -= len(evs)
	return evs
}

// nextDue returns the earliest cycle strictly after `now` at which a pending
// event fires, or math.MaxInt64 when the wheel is empty. O(horizon) and
// allocation-free; called only at skip decisions, when the rest of the
// engine is idle.
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
	return next
}
