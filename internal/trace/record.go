// Trace recording and replay: the on-disk format lets a generated trace be
// stored once and replayed deterministically across experiments, mirroring
// the paper's record-once/replay-many methodology.

package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Event is one injected message.
type Event struct {
	Cycle int64
	Src   int32
	Dst   int32
	Flits int16
	Class int16
}

// Record runs a Source standalone for the given number of cycles and
// captures the primary (non-reply) messages it would inject.
func Record(src *Source, cycles int64, seed int64) []Event {
	r := rng.New(seed)
	var out []Event
	for t := int64(0); t < cycles; t++ {
		src.Generate(t, r, func(s, d, flits, class int) {
			out = append(out, Event{Cycle: t, Src: int32(s), Dst: int32(d),
				Flits: int16(flits), Class: int16(class)})
		})
	}
	return out
}

// Write stores events in a compact binary stream.
func Write(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, int64(len(events))); err != nil {
		return err
	}
	for _, e := range events {
		if err := binary.Write(bw, binary.LittleEndian, e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read loads events written by Write.
func Read(r io.Reader) ([]Event, error) {
	br := bufio.NewReader(r)
	var n int64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n < 0 || n > 1<<30 {
		return nil, fmt.Errorf("trace: implausible event count %d", n)
	}
	events := make([]Event, n)
	for i := range events {
		if err := binary.Read(br, binary.LittleEndian, &events[i]); err != nil {
			return nil, err
		}
	}
	return events, nil
}

// Replay is a sim.Source that re-injects a recorded event stream, still
// generating read replies dynamically.
type Replay struct {
	Events []Event
	pos    int
	// Loop restarts the trace when exhausted (events' cycles are offset).
	Loop   bool
	offset int64

	Replies int64
}

var _ sim.Source = (*Replay)(nil)
var _ sim.NextFirer = (*Replay)(nil)

// NextFire implements sim.NextFirer: the recorded stream knows the exact
// cycle of its next injection and Generate draws no RNG, so the event
// calendar may skip the gaps of a sparse trace. A looping trace that has
// just exhausted must fire next cycle — the restart offset is pinned by the
// next Generate call and skipping it would shift every replayed cycle.
func (r *Replay) NextFire(t int64) int64 {
	if r.pos >= len(r.Events) {
		if !r.Loop || len(r.Events) == 0 {
			return math.MaxInt64
		}
		return t + 1
	}
	if at := r.Events[r.pos].Cycle + r.offset; at > t+1 {
		return at
	}
	return t + 1
}

// Generate implements sim.Source.
func (r *Replay) Generate(t int64, rng *rng.Stream, emit func(src, dst, flits, class int)) {
	for {
		if r.pos >= len(r.Events) {
			if !r.Loop || len(r.Events) == 0 {
				return
			}
			// Restart strictly in the next cycle so a trace shorter than
			// the wall clock cannot loop forever within one call.
			r.offset = t + 1
			r.pos = 0
		}
		e := r.Events[r.pos]
		if e.Cycle+r.offset > t {
			return
		}
		emit(int(e.Src), int(e.Dst), int(e.Flits), int(e.Class))
		r.pos++
	}
}

// OnDelivered implements sim.Source.
func (r *Replay) OnDelivered(t int64, src, dst, flits, class int, emit func(src, dst, flits, class int)) {
	if class == ClassRead {
		emit(dst, src, FlitsReply, ClassReply)
		r.Replies++
	}
}
