// Package rpc is ASDF's lightweight remote-procedure-call layer, standing in
// for ZeroC ICE in the paper's architecture (§3.5): each monitored node runs
// collection daemons (sadc_rpcd, hadoop_log_rpcd) and the control node polls
// them once per iteration.
//
// The wire protocol is length-prefixed frames over TCP: a 4-byte big-endian
// frame length followed by the body. A connection begins with a JSON hello
// exchange (protocol version and service name), after which the client
// issues synchronous request/response calls. Control calls are JSON; metric
// data moves as pulled columnar stream frames (stream.go), tagged by the
// length header's high bit. Both ends count exact wire bytes, which is how
// the Table 4 bandwidth experiment is measured.
package rpc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ProtocolVersion identifies the wire protocol; the hello exchange rejects
// mismatches.
const ProtocolVersion = 1

// maxFrameBytes bounds a single frame; larger frames indicate a corrupt or
// hostile peer.
const maxFrameBytes = 16 << 20

// Errors returned by the client.
var (
	// ErrClosed is returned by calls on a closed client.
	ErrClosed = errors.New("rpc: connection closed")
)

// RemoteError is an error returned by the remote handler (as opposed to a
// transport failure).
type RemoteError struct {
	Method  string
	Message string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error in %s: %s", e.Method, e.Message)
}

type helloRequest struct {
	Proto  int    `json:"proto"`
	Client string `json:"client"`
}

type helloResponse struct {
	Proto   int      `json:"proto"`
	Service string   `json:"service"`
	Methods []string `json:"methods"`
}

type request struct {
	ID     uint64          `json:"id"`
	Method string          `json:"method"`
	Params json.RawMessage `json:"params,omitempty"`
}

type response struct {
	ID     uint64          `json:"id"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// countingConn wraps a net.Conn with byte counters.
type countingConn struct {
	net.Conn
	read    atomic.Uint64
	written atomic.Uint64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(uint64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(uint64(n))
	return n, err
}

// writeFrame writes one length-prefixed JSON frame.
func writeFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("rpc: marshal: %w", err)
	}
	return writeRawFrame(w, body)
}

// readFrame reads one length-prefixed JSON frame into v.
func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err // io.EOF passes through for clean shutdown detection
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameBytes {
		return fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return fmt.Errorf("rpc: read body: %w", err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("rpc: unmarshal: %w", err)
	}
	return nil
}

// HandlerFunc serves one method. Params is the raw JSON sent by the client;
// the returned value is marshaled as the result.
type HandlerFunc func(params json.RawMessage) (any, error)

// Faults configures server-side fault injection, used by tests and chaos
// drills to exercise the collection plane's failure handling without a real
// network. The zero value injects nothing.
type Faults struct {
	// RefuseNew closes newly accepted connections before the hello
	// exchange, simulating a daemon that is up but wedged.
	RefuseNew bool
	// Delay sleeps this long before every response, simulating a slow
	// node; pair with a short client CallTimeout to force timeouts.
	Delay time.Duration
}

// Server dispatches calls to registered handlers. The zero value is not
// usable; create with NewServer.
type Server struct {
	service string

	mu             sync.Mutex
	handlers       map[string]HandlerFunc
	streamHandlers map[string]StreamHandlerFunc
	listener       net.Listener
	conns          map[net.Conn]bool
	closed         bool
	faults         Faults

	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
}

// NewServer creates a server identifying itself as service in the hello
// exchange.
func NewServer(service string) *Server {
	return &Server{
		service:        service,
		handlers:       make(map[string]HandlerFunc),
		streamHandlers: make(map[string]StreamHandlerFunc),
		conns:          make(map[net.Conn]bool),
	}
}

// Handle registers a handler for method. Registering a duplicate method is
// a programming error and panics.
func (s *Server) Handle(method string, h HandlerFunc) {
	if method == "" || h == nil {
		panic("rpc: Handle requires a method name and handler")
	}
	if isStreamMethod(method) {
		panic("rpc: " + method + " is reserved; the server dispatches it natively")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic(fmt.Sprintf("rpc: method %q registered twice", method))
	}
	s.handlers[method] = h
}

// Listen begins accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serving happens on background goroutines; call
// Close to stop.
func (s *Server) Listen(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = l.Close()
		return nil, ErrClosed
	}
	s.listener = l
	s.mu.Unlock()

	go s.acceptLoop(l)
	return l.Addr(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// SetFaults replaces the server's injected faults; it applies to new
// connections and to responses on existing ones.
func (s *Server) SetFaults(f Faults) {
	s.mu.Lock()
	s.faults = f
	s.mu.Unlock()
}

// DropConns abruptly closes every active connection while keeping the
// listener up, simulating a network partition that severs established
// connections. It returns the number of connections dropped.
func (s *Server) DropConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for conn := range s.conns {
		_ = conn.Close()
		n++
	}
	return n
}

func (s *Server) currentFaults() Faults {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

func (s *Server) serveConn(raw net.Conn) {
	cc := &countingConn{Conn: raw}
	cs := &connState{srv: s, cc: cc}
	defer func() {
		s.bytesRead.Add(cc.read.Load())
		s.bytesWritten.Add(cc.written.Load())
		_ = raw.Close()
		s.mu.Lock()
		delete(s.conns, raw)
		s.mu.Unlock()
	}()

	if s.currentFaults().RefuseNew {
		return // injected fault: drop the connection before hello
	}

	var hello helloRequest
	if err := readFrame(cc, &hello); err != nil {
		return
	}
	if hello.Proto != ProtocolVersion {
		_ = writeFrame(cc, response{Error: fmt.Sprintf("unsupported protocol %d", hello.Proto)})
		return
	}
	s.mu.Lock()
	methods := make([]string, 0, len(s.handlers)+1)
	for m := range s.handlers {
		methods = append(methods, m)
	}
	if len(s.streamHandlers) > 0 {
		methods = append(methods, MethodStreamOpen)
	}
	s.mu.Unlock()
	if err := writeFrame(cc, helloResponse{Proto: ProtocolVersion, Service: s.service, Methods: methods}); err != nil {
		return
	}

	for {
		var req request
		if err := readFrame(cc, &req); err != nil {
			return
		}
		if req.Method == MethodStreamPull {
			// Collects, applies the delay fault, and writes the binary (or
			// JSON error) frame itself.
			if err := cs.pullStream(&req); err != nil {
				return
			}
			continue
		}
		var resp response
		if req.Method == MethodStreamOpen {
			resp = cs.openStream(&req)
		} else {
			resp = s.dispatch(&req)
		}
		if d := s.currentFaults().Delay; d > 0 {
			time.Sleep(d) // injected fault: slow node
		}
		if err := writeFrame(cc, resp); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(req *request) response {
	s.mu.Lock()
	h, ok := s.handlers[req.Method]
	s.mu.Unlock()
	if !ok {
		return response{ID: req.ID, Error: fmt.Sprintf("unknown method %q", req.Method)}
	}
	result, err := h(req.Params)
	if err != nil {
		return response{ID: req.ID, Error: err.Error()}
	}
	raw, err := json.Marshal(result)
	if err != nil {
		return response{ID: req.ID, Error: fmt.Sprintf("marshal result: %v", err)}
	}
	return response{ID: req.ID, Result: raw}
}

// Close stops the listener and closes all active connections.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for conn := range s.conns {
		_ = conn.Close()
	}
	return err
}

// Stats reports total wire bytes over all finished and active accounting
// periods (bytes from connections still open are flushed on their close).
func (s *Server) Stats() (bytesRead, bytesWritten uint64) {
	return s.bytesRead.Load(), s.bytesWritten.Load()
}

// Client is a synchronous RPC client over one TCP connection. Safe for
// concurrent use; calls are serialized on the connection.
type Client struct {
	mu      sync.Mutex
	conn    *countingConn
	closed  bool
	nextID  uint64
	timeout time.Duration
	reqBuf  []byte // pull-request encode buffer, reused under mu

	// Service and Methods are populated from the hello exchange.
	Service string
	Methods []string
}

// DialOption customizes Dial.
type DialOption func(*Client)

// WithCallTimeout sets a per-call deadline (default 10s).
func WithCallTimeout(d time.Duration) DialOption {
	return func(c *Client) { c.timeout = d }
}

// Dial connects to an RPC server, performs the hello exchange, and returns
// a ready client.
func Dial(addr, clientName string, opts ...DialOption) (*Client, error) {
	raw, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	c := &Client{conn: &countingConn{Conn: raw}, timeout: 10 * time.Second}
	for _, o := range opts {
		o(c)
	}
	if err := writeFrame(c.conn, helloRequest{Proto: ProtocolVersion, Client: clientName}); err != nil {
		_ = raw.Close()
		return nil, err
	}
	var hello helloResponse
	_ = raw.SetReadDeadline(time.Now().Add(c.timeout))
	if err := readFrame(c.conn, &hello); err != nil {
		_ = raw.Close()
		return nil, fmt.Errorf("rpc: hello: %w", err)
	}
	_ = raw.SetReadDeadline(time.Time{})
	if hello.Proto != ProtocolVersion {
		_ = raw.Close()
		return nil, fmt.Errorf("rpc: server speaks protocol %d, want %d", hello.Proto, ProtocolVersion)
	}
	c.Service = hello.Service
	c.Methods = hello.Methods
	return c, nil
}

// Call invokes method with params (marshaled to JSON) and unmarshals the
// result into result (which may be nil to discard).
func (c *Client) Call(method string, params, result any) error {
	var raw json.RawMessage
	if params != nil {
		b, err := json.Marshal(params)
		if err != nil {
			return fmt.Errorf("rpc: marshal params: %w", err)
		}
		raw = b
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.nextID++
	req := request{ID: c.nextID, Method: method, Params: raw}

	deadline := time.Now().Add(c.timeout)
	_ = c.conn.SetDeadline(deadline)
	defer func() { _ = c.conn.SetDeadline(time.Time{}) }()

	if err := writeFrame(c.conn, req); err != nil {
		return err
	}
	var resp response
	if err := readFrame(c.conn, &resp); err != nil {
		if errors.Is(err, io.EOF) {
			return ErrClosed
		}
		return fmt.Errorf("rpc: call %s: %w", method, err)
	}
	if resp.ID != req.ID {
		return fmt.Errorf("rpc: call %s: response id %d, want %d", method, resp.ID, req.ID)
	}
	if resp.Error != "" {
		return &RemoteError{Method: method, Message: resp.Error}
	}
	if result != nil && resp.Result != nil {
		if err := json.Unmarshal(resp.Result, result); err != nil {
			return fmt.Errorf("rpc: call %s: unmarshal result: %w", method, err)
		}
	}
	return nil
}

// Stats reports the exact wire bytes sent and received by this client,
// including the hello exchange.
func (c *Client) Stats() (bytesSent, bytesReceived uint64) {
	return c.conn.written.Load(), c.conn.read.Load()
}

// Close closes the connection. Subsequent calls return ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}
