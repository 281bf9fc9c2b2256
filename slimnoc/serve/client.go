package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/slimnoc"
)

// defaultWindow is the client's bound on in-flight requests.
const defaultWindow = 32

// Client speaks the JSON-line protocol to a serve.Server over any
// stream transport. It pipelines: up to 32 requests may be
// in flight at once, submitted from any number of goroutines, with
// responses matched back to callers in protocol order (the server answers
// strictly in request order). When the window is full, submission blocks —
// server-side backpressure (queued engine activations) propagates to the
// caller instead of growing an unbounded queue. The session's other verbs
// (occupy, window, stats, shutdown) are spoken on the wire by hosts that
// drive the server directly; docs/SERVING.md describes them.
type Client struct {
	rwc io.ReadWriteCloser

	network slimnoc.NetworkInfo

	// wmu serializes writes and pending-queue appends so the FIFO order of
	// pending always matches the wire order of requests.
	wmu     sync.Mutex
	w       *bufio.Writer
	nextID  int64
	pending chan *call
	window  chan struct{}

	closeOnce sync.Once
	readerErr error
	done      chan struct{}
}

// call is one in-flight request awaiting its response line.
type call struct {
	id   int64
	resp Response
	err  error
	done chan struct{}
}

// NewClient opens a session over an existing transport (a TCP connection, a
// subprocess's stdin/stdout pair, an in-process pipe): it performs the
// hello handshake synchronously and returns a ready client, whose session
// keeps the server's default flit width. The client owns rwc and closes it
// on Close.
func NewClient(rwc io.ReadWriteCloser, spec slimnoc.RunSpec) (*Client, error) {
	c := &Client{
		rwc:     rwc,
		w:       bufio.NewWriter(rwc),
		pending: make(chan *call, defaultWindow),
		window:  make(chan struct{}, defaultWindow),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	resp, err := c.roundTrip(Request{Op: opHello, Version: protocolVersion, Spec: &spec})
	if err != nil {
		c.Close()
		return nil, err
	}
	if resp.Network == nil {
		c.Close()
		return nil, errors.New("serve: hello response missing network info")
	}
	c.network = *resp.Network
	return c, nil
}

// readLoop matches response lines to pending calls in FIFO order.
func (c *Client) readLoop() {
	sc := bufio.NewScanner(c.rwc)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var resp Response
		err := json.Unmarshal(line, &resp)
		select {
		case call := <-c.pending:
			if err != nil {
				call.err = fmt.Errorf("serve: malformed response line: %w", err)
			} else if resp.ID != call.id {
				call.err = fmt.Errorf("serve: response id %d does not match request id %d", resp.ID, call.id)
			} else {
				call.resp = resp
			}
			close(call.done)
			<-c.window
		default:
			// A response with no pending request means the stream
			// desynchronized; abandon the session.
			c.failPending(errors.New("serve: unsolicited response line"))
			return
		}
	}
	err := sc.Err()
	if err == nil {
		err = io.EOF
	}
	c.failPending(fmt.Errorf("serve: connection lost: %w", err))
}

// failPending wakes every queued caller with err and marks the client dead.
func (c *Client) failPending(err error) {
	c.readerErr = err
	close(c.done)
	for {
		select {
		case call := <-c.pending:
			call.err = err
			close(call.done)
		default:
			return
		}
	}
}

// send writes one request line and registers its call, respecting the
// in-flight window.
func (c *Client) send(req Request) (*call, error) {
	select {
	case c.window <- struct{}{}:
	case <-c.done:
		return nil, c.readerErr
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	select {
	case <-c.done:
		<-c.window
		return nil, c.readerErr
	default:
	}
	c.nextID++
	req.ID = c.nextID
	cl := &call{id: req.ID, done: make(chan struct{})}
	out, err := json.Marshal(req)
	if err != nil {
		<-c.window
		return nil, err
	}
	// Registering before writing keeps the pending FIFO aligned with the
	// wire even if the reader races ahead.
	c.pending <- cl
	c.w.Write(out)
	c.w.WriteByte('\n')
	if err := c.w.Flush(); err != nil {
		return nil, fmt.Errorf("serve: write request: %w", err)
	}
	return cl, nil
}

// roundTrip submits one request and waits for its response, surfacing
// protocol-level errors (OK false) as Go errors.
func (c *Client) roundTrip(req Request) (Response, error) {
	cl, err := c.send(req)
	if err != nil {
		return Response{}, err
	}
	<-cl.done
	if cl.err != nil {
		return Response{}, cl.err
	}
	if !cl.resp.OK {
		return cl.resp, fmt.Errorf("serve: %s failed: %s", req.Op, cl.resp.Error)
	}
	return cl.resp, nil
}

// Network returns the session engine's network summary from hello.
func (c *Client) Network() slimnoc.NetworkInfo { return c.network }

// EstimateFlits returns the isolated (idle-network) latency of moving flits
// flits from node src to node dst.
func (c *Client) EstimateFlits(src, dst, flits int) (slimnoc.EstimateResult, error) {
	resp, err := c.roundTrip(Request{Op: OpEstimate, Src: &src, Dst: &dst, Flits: flits})
	if err != nil {
		return slimnoc.EstimateResult{}, err
	}
	if resp.Result == nil {
		return slimnoc.EstimateResult{}, errors.New("serve: estimate response missing result")
	}
	return *resp.Result, nil
}

// Batch estimates a set of transfers as one contended episode (all
// injected at cycle 0), amortizing one engine activation; results are in
// request order.
func (c *Client) Batch(transfers []WireTransfer) ([]slimnoc.EstimateResult, error) {
	resp, err := c.roundTrip(Request{Op: opBatch, Transfers: transfers})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(transfers) {
		return nil, fmt.Errorf("serve: batch returned %d results for %d transfers", len(resp.Results), len(transfers))
	}
	return resp.Results, nil
}

// Close releases the transport. In-flight calls fail with a connection
// error. Safe to call more than once.
func (c *Client) Close() error {
	var err error
	c.closeOnce.Do(func() { err = c.rwc.Close() })
	return err
}
