package serve

// ProtocolVersion is the wire generation the tests pin.
const ProtocolVersion = protocolVersion

// FlitsFor is flitsFor, for the conversion table test.
var FlitsFor = flitsFor

// RoundTrip sends one request on the session and waits for its response,
// so the tests drive every verb of the protocol through a Client.
func (c *Client) RoundTrip(req Request) (Response, error) { return c.roundTrip(req) }

// Size returns the pool's activation-slot count.
func (p *Pool) Size() int { return cap(p.slots) }
