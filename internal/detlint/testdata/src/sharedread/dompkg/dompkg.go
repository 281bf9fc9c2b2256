// Package dompkg exercises sharedread's cross-domain mode: inside
// //sim:domain functions, writes to the configured DomainSharedFields are
// flagged unless waived with the exclusivity argument — assignments, and
// calls of pointer-receiver methods on them; the same writes in unannotated
// (serial) code are fine.
package dompkg

type link struct {
	pending int
	inFly   [2]int
}

type queue struct{ buf []int }

func (q *queue) push(v int) { q.buf = append(q.buf, v) }

func (q queue) size() int { return len(q.buf) }

type engine struct {
	links []link
	count int64
	local int64
	out   []queue
}

// stepLink runs once per domain, concurrently, during the link phase.
//
//sim:domain
func (e *engine) stepLink(li int) {
	l := &e.links[li]
	l.pending-- // want "write to cross-domain shared field sharedread/dompkg.link.pending"
	//detlint:allow sharedread receiver-exclusive: one receiving router per directed link
	l.inFly[0]--
	e.count++         // want "write to cross-domain shared field sharedread/dompkg.engine.count"
	e.local++         // not configured as shared: no finding
	e.out[li].push(1) // want "write to cross-domain shared field sharedread/dompkg.engine.out"
	//detlint:allow sharedread sender-exclusive: out[li] is written by one domain per phase
	e.out[li].push(2)
	_ = e.out[li].size() // value receiver: cannot mutate, no finding
}

// mergeSerial replays staged effects on the main goroutine; it is not
// annotated, so the same writes are out of the cross-domain contract.
func (e *engine) mergeSerial() {
	e.links[0].pending--
	e.count++
	e.out[0].push(3)
}
