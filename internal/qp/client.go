package qp

import (
	"fmt"

	"pier/internal/tuple"
	"pier/internal/ufl"
	"pier/internal/vri"
	"pier/internal/wire"
)

// Client↔proxy protocol (§3.3.2): "the user application (the client)
// establishes a TCP connection with any PIER node. The PIER node selected
// serves as the proxy node for the user", responsible for parsing,
// dissemination, and forwarding results back. TCP is used here (not the
// UDP transport) for compatibility with standard clients and friendliness
// to NATs and firewalls (§3.1.3).
//
// Frames on the connection (each frame is one stream write):
//
//	client → proxy:  'Q' <query text in UFL>
//	                 'B' <encoded ufl.Query>  pre-compiled plan
//	proxy → client:  'T' <encoded tuple>     one result
//	                 'E' <error string>      query rejected
//	                 'D'                     query done

// Client frame tags.
const (
	cfQuery = 'Q'
	cfPlan  = 'B'
	cfTuple = 'T'
	cfError = 'E'
	cfDone  = 'D'
)

// ServeClients starts accepting client connections on the node's client
// port. Each connection may carry one query at a time.
func (n *Node) ServeClients() error {
	srt, ok := n.rt.(vri.StreamRuntime)
	if !ok {
		return fmt.Errorf("qp: runtime does not support streams")
	}
	return srt.ListenStream(vri.PortClient, &proxyService{n: n})
}

// StopServingClients releases the client port.
func (n *Node) StopServingClients() {
	if srt, ok := n.rt.(vri.StreamRuntime); ok {
		srt.ReleaseStream(vri.PortClient)
	}
}

// proxyService handles inbound client connections on the proxy node.
type proxyService struct {
	n *Node
}

func (s *proxyService) HandleConn(vri.Conn) {}

func (s *proxyService) HandleData(c vri.Conn, data []byte) {
	if len(data) == 0 {
		return
	}
	var q *ufl.Query
	var err error
	switch data[0] {
	case cfQuery:
		q, err = ufl.Parse(string(data[1:]))
	case cfPlan:
		q, err = ufl.Decode(data[1:]) // Submit validates it
	default:
		return
	}
	if err != nil {
		c.Write(append([]byte{cfError}, err.Error()...))
		return
	}
	clientID := string(c.RemoteAddr())
	err = s.n.Submit(q, clientID,
		func(t *tuple.Tuple) {
			w := wire.NewWriter(64)
			w.U8(cfTuple)
			t.EncodeTo(w)
			c.Write(w.Bytes())
		},
		func() { c.Write([]byte{cfDone}) },
	)
	if err != nil {
		c.Write(append([]byte{cfError}, err.Error()...))
	}
}

func (s *proxyService) HandleError(vri.Conn, error) {
	// Client went away; in-flight queries run to their timeout and their
	// writes fall on a closed connection. A production system would
	// cancel; the paper's PIER also lets timeouts collect the state.
}

// Client is the application-side handle: it dials any PIER node over the
// stream transport and submits UFL text queries.
type Client struct {
	rt   vri.StreamRuntime
	conn vri.Conn

	onResult func(*tuple.Tuple)
	onDone   func()
	onError  func(error)
}

// NewClient connects to the proxy at addr. Handlers may be nil.
func NewClient(rt vri.StreamRuntime, proxy vri.Addr,
	onResult func(*tuple.Tuple), onDone func(), onError func(error)) (*Client, error) {
	c := &Client{rt: rt, onResult: onResult, onDone: onDone, onError: onError}
	conn, err := rt.Connect(proxy, vri.PortClient, clientHandler{c})
	if err != nil {
		return nil, err
	}
	c.conn = conn
	return c, nil
}

// Run submits a UFL query text to the proxy.
func (c *Client) Run(queryText string) {
	c.conn.Write(append([]byte{cfQuery}, queryText...))
}

// RunPlan submits a pre-compiled plan (e.g. from the SQL frontend, which
// runs client-side) to the proxy.
func (c *Client) RunPlan(q *ufl.Query) {
	c.conn.Write(append([]byte{cfPlan}, q.Encode()...))
}

// Close drops the connection.
func (c *Client) Close() { c.conn.Close() }

type clientHandler struct{ c *Client }

func (h clientHandler) HandleConn(vri.Conn) {}

func (h clientHandler) HandleData(_ vri.Conn, data []byte) {
	if len(data) == 0 {
		return
	}
	switch data[0] {
	case cfTuple:
		t, err := tuple.Decode(data[1:])
		if err == nil && h.c.onResult != nil {
			h.c.onResult(t)
		}
	case cfDone:
		if h.c.onDone != nil {
			h.c.onDone()
		}
	case cfError:
		if h.c.onError != nil {
			h.c.onError(fmt.Errorf("qp: proxy rejected query: %s", data[1:]))
		}
	}
}

func (h clientHandler) HandleError(_ vri.Conn, err error) {
	if h.c.onError != nil {
		h.c.onError(err)
	}
}
