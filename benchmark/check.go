package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/exp"
	"repro/slimnoc"
)

// Correctness: every op yields a digest over a fixed tuple of simulated
// statistics that this file formats itself (not whole-Result JSON, so a
// field added to Result does not move it). A digest is compared with the
// reference of its slot: the pinned value when expected.json has pins for
// this engine version and the seed is 1, else the first digest seen in the
// slot (self-consistency: repeats of one input must agree).

//go:embed expected.json
var expectedJSON []byte

// pinSeed is the only seed expected.json holds digests for.
const pinSeed = 1

// pins maps engine version -> workload -> slot -> digest.
type pins map[string]map[string]map[string]string

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(expectedJSON, &p); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return p, nil
}

// digester hashes a sequence of formatted fields.
type digester struct{ buf []byte }

func (d *digester) f(v float64) {
	d.buf = strconv.AppendFloat(d.buf, v, 'g', -1, 64)
	d.buf = append(d.buf, '|')
}
func (d *digester) i(v int64) { d.buf = strconv.AppendInt(d.buf, v, 10); d.buf = append(d.buf, '|') }
func (d *digester) b(v bool)  { d.buf = strconv.AppendBool(d.buf, v); d.buf = append(d.buf, '|') }
func (d *digester) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:8])
}

func (d *digester) metrics(m slimnoc.Metrics) {
	d.f(m.AvgLatencyCycles)
	d.f(m.P99LatencyCycles)
	d.f(m.Throughput)
	d.f(m.OfferedLoad)
	d.f(m.AvgHops)
	d.i(m.Delivered)
	d.i(m.Generated)
	d.i(m.Cycles)
	d.b(m.Saturated)
}

func digestResult(r *slimnoc.Result) string {
	var d digester
	d.metrics(r.Metrics)
	return d.sum()
}

// digestFigure covers every point of every sweep, in submission order.
func digestFigure(run exp.FigureRun) string {
	var d digester
	for _, sweep := range run.Results {
		for _, p := range sweep {
			if p.Result != nil {
				d.metrics(p.Result.Metrics)
			}
		}
	}
	return d.sum()
}

func digestEstimates(rs []slimnoc.EstimateResult) string {
	var d digester
	for _, r := range rs {
		d.i(r.LatencyCycles)
		d.i(int64(r.Hops))
		d.i(int64(r.Flits))
	}
	return d.sum()
}

// checker holds the per-slot reference digests of one workload run.
type checker struct {
	mu     sync.Mutex
	ref    map[int]string
	pinned bool
}

// newChecker seeds the references from the pins when they apply.
func newChecker(p pins, workload string, seed int64) *checker {
	c := &checker{ref: make(map[int]string)}
	if seed != pinSeed {
		return c
	}
	for slot, dig := range p[slimnoc.EngineVersion][workload] {
		if n, err := strconv.Atoi(slot); err == nil {
			c.ref[n] = dig
			c.pinned = true
		}
	}
	return c
}

// ok reports whether digest agrees with the slot's reference, recording it
// as the reference when the slot has none. Slot < 0 means "no reference".
func (c *checker) ok(slot int, digest string) bool {
	if slot < 0 {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	want, seen := c.ref[slot]
	if !seen {
		c.ref[slot] = digest
		return true
	}
	return want == digest
}

// verify is the verdict on one op: its own error, or a digest that disagrees
// with its slot's reference.
func (c *checker) verify(op opOut) error {
	if op.err != nil {
		return op.err
	}
	if !c.ok(op.slot, op.digest) {
		return fmt.Errorf("digest %s differs from the reference of slot %d", op.digest, op.slot)
	}
	return nil
}

// slots returns the references in expected.json form.
func (c *checker) slots() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.ref))
	for slot, dig := range c.ref {
		out[strconv.Itoa(slot)] = dig
	}
	return out
}

// writePins regenerates this engine version's seed-1 digests in
// benchmark/expected.json, keeping the pins of other versions.
func writePins(stdout io.Writer) error {
	p, err := loadPins()
	if err != nil {
		return err
	}
	if p == nil {
		p = make(pins)
	}
	e, cleanup, err := newEnv(pinSeed, false)
	if err != nil {
		return err
	}
	defer cleanup()
	p[slimnoc.EngineVersion] = make(map[string]map[string]string)
	for _, w := range workloads {
		chk := &checker{ref: make(map[int]string)}
		inst, err := w.setup(e, w)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		for s := 0; s < inst.sessions(); s++ {
			for i := 0; i < max(w.warm, pointSlots); i++ {
				if out := inst.op(s, i); out.err != nil {
					inst.close()
					return fmt.Errorf("%s: %w", w.name, out.err)
				} else if !chk.ok(out.slot, out.digest) {
					inst.close()
					return fmt.Errorf("%s: slot %d is not reproducible", w.name, out.slot)
				}
			}
		}
		if err := inst.close(); err != nil {
			return err
		}
		p[slimnoc.EngineVersion][w.name] = chk.slots()
		fmt.Fprintf(stdout, "%s: %d slots pinned for %s\n", w.name, len(chk.ref), slimnoc.EngineVersion)
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("benchmark", "expected.json"), append(data, '\n'), 0o644)
}
