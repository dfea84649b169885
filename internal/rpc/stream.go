package rpc

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"
)

// Metric streams: the columnar delta codec carried over the RPC connection.
// The client opens a stream with an ordinary JSON call (rpc.stream.open
// names the underlying method); the server pins a StreamSource and a
// ColumnarEncoder to the connection and replies with a stream id. From then
// on the client pulls frames one at a time (rpc.stream.pull —
// request/response, same serialization discipline as any call). Binary
// frames are distinguished from JSON frames by the high bit of the 4-byte
// length header, so both kinds share one connection.
//
// Stream state lives on the connection on both sides. A reconnect therefore
// drops every stream with it, and StreamClient transparently reopens on the
// next pull — the fresh server-side encoder re-sends the schema frame
// first, which resets the client decoder's delta state.

// Reserved stream method names. The server dispatches them natively;
// handlers cannot register them.
const (
	// MethodStreamOpen opens a stream: params {method, params}, result
	// {stream}.
	MethodStreamOpen = "rpc.stream.open"
	// MethodStreamPull requests one frame from a stream: params {s}; the
	// response is a binary columnar frame, or a JSON error frame.
	MethodStreamPull = "rpc.stream.pull"
)

func isStreamMethod(m string) bool {
	return m == MethodStreamOpen || m == MethodStreamPull
}

// binaryFrameFlag tags a frame's length header as a binary (columnar) body.
// The masked length obeys the same maxFrameBytes bound as JSON frames.
const binaryFrameFlag = uint32(1) << 31

// writeRawFrame writes one length-prefixed frame whose body is already
// serialized, the raw counterpart of writeFrame.
func writeRawFrame(w io.Writer, body []byte) error {
	return writeHeaderAndBody(w, uint32(len(body)), body)
}

// writeBinaryFrame writes one length-prefixed binary frame, tagging the
// header's high bit so the receiver routes it to the columnar decoder.
func writeBinaryFrame(w io.Writer, body []byte) error {
	return writeHeaderAndBody(w, uint32(len(body))|binaryFrameFlag, body)
}

func writeHeaderAndBody(w io.Writer, hdrWord uint32, body []byte) error {
	if len(body) > maxFrameBytes {
		return fmt.Errorf("rpc: frame of %d bytes exceeds limit", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], hdrWord)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("rpc: write header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("rpc: write body: %w", err)
	}
	return nil
}

// readTaggedFrame reads one frame into *buf (grown as needed, reused
// otherwise) and reports whether it was a binary frame.
func readTaggedFrame(r io.Reader, buf *[]byte) (body []byte, isBinary bool, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, false, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	isBinary = n&binaryFrameFlag != 0
	n &^= binaryFrameFlag
	if n > maxFrameBytes {
		return nil, false, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
	if _, err := io.ReadFull(r, *buf); err != nil {
		return nil, false, fmt.Errorf("rpc: read body: %w", err)
	}
	return *buf, isBinary, nil
}

// FrameWriter is handed to a StreamSource's Collect to append rows to the
// frame being built. Errors stick: the first failed append fails the
// collect.
type FrameWriter struct {
	enc *ColumnarEncoder
	err error
}

// AppendRow adds one row to the in-progress frame; see
// ColumnarEncoder.AppendRow for the argument contract.
func (fw *FrameWriter) AppendRow(timeNanos int64, warmup bool, present []bool, values []float64) {
	if fw.err != nil {
		return
	}
	fw.err = fw.enc.AppendRow(timeNanos, warmup, present, values)
}

// StreamSource produces the rows of one open stream. Collect is called once
// per pull and must not retain the FrameWriter.
type StreamSource interface {
	Schema() StreamSchema
	Collect(fw *FrameWriter) error
}

// StreamHandlerFunc creates a StreamSource for one stream open. params is
// the raw JSON the client passed in the open request. Each open gets its
// own source, so per-stream state (rate baselines, log cursors) is isolated
// per client connection.
type StreamHandlerFunc func(params json.RawMessage) (StreamSource, error)

// HandleStream registers a stream handler for method. Registering a
// duplicate or reserved method panics, mirroring Handle.
func (s *Server) HandleStream(method string, h StreamHandlerFunc) {
	if method == "" || h == nil {
		panic("rpc: HandleStream requires a method name and handler")
	}
	if isStreamMethod(method) {
		panic("rpc: " + method + " is reserved; the server dispatches it natively")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.streamHandlers[method]; dup {
		panic(fmt.Sprintf("rpc: stream method %q registered twice", method))
	}
	s.streamHandlers[method] = h
}

// Wire forms of the stream control calls.

type streamOpenRequest struct {
	Method string          `json:"method"`
	Params json.RawMessage `json:"params,omitempty"`
}

type streamOpenResponse struct {
	Stream uint64 `json:"stream"`
}

type streamPullRequest struct {
	S uint64 `json:"s"`
}

// serverStream is one open stream pinned to a connection.
type serverStream struct {
	src StreamSource
	enc *ColumnarEncoder
}

// connState is the per-connection serving state: the streams opened on
// this connection. It dies with the connection, and only the connection's
// serve loop touches it.
type connState struct {
	srv        *Server
	cc         *countingConn
	streams    map[uint64]*serverStream
	nextStream uint64
}

// openStream serves one MethodStreamOpen request.
func (cs *connState) openStream(req *request) response {
	var or streamOpenRequest
	if err := json.Unmarshal(req.Params, &or); err != nil {
		return response{ID: req.ID, Error: fmt.Sprintf("malformed stream open: %v", err)}
	}
	cs.srv.mu.Lock()
	h, ok := cs.srv.streamHandlers[or.Method]
	cs.srv.mu.Unlock()
	if !ok {
		return response{ID: req.ID, Error: fmt.Sprintf("rpc.stream: unsupported method %q", or.Method)}
	}
	if len(cs.streams) >= maxStreamsPerConn {
		return response{ID: req.ID, Error: fmt.Sprintf("rpc.stream: more than %d streams on one connection", maxStreamsPerConn)}
	}
	src, err := h(or.Params)
	if err != nil {
		return response{ID: req.ID, Error: err.Error()}
	}
	if cs.streams == nil {
		cs.streams = make(map[uint64]*serverStream)
	}
	cs.nextStream++
	cs.streams[cs.nextStream] = &serverStream{src: src, enc: NewColumnarEncoder(src.Schema())}

	raw, err := json.Marshal(streamOpenResponse{Stream: cs.nextStream})
	if err != nil {
		return response{ID: req.ID, Error: fmt.Sprintf("marshal result: %v", err)}
	}
	return response{ID: req.ID, Result: raw}
}

// pullStream serves one MethodStreamPull request: collect one frame from the
// source and write it as a binary frame, or a JSON error frame. The
// returned error is a connection write failure.
func (cs *connState) pullStream(req *request) error {
	var pr streamPullRequest
	var st *serverStream
	var errMsg string
	if err := json.Unmarshal(req.Params, &pr); err != nil {
		errMsg = fmt.Sprintf("malformed stream pull: %v", err)
	} else if st = cs.streams[pr.S]; st == nil {
		errMsg = fmt.Sprintf("rpc.stream: unknown stream %d", pr.S)
	}

	var body []byte
	if errMsg == "" {
		st.enc.Begin()
		fw := FrameWriter{enc: st.enc}
		err := st.src.Collect(&fw)
		if err == nil {
			err = fw.err
		}
		if err != nil {
			errMsg = err.Error()
		} else {
			body = st.enc.Finish()
		}
	}

	if d := cs.srv.currentFaults().Delay; d > 0 {
		time.Sleep(d) // injected fault: slow node
	}
	if errMsg != "" {
		return writeFrame(cs.cc, response{ID: req.ID, Error: errMsg})
	}
	return writeBinaryFrame(cs.cc, body)
}

// appendPullRequest appends the request body for a pull call — hand-rolled
// so a reused dst keeps the per-tick encode allocation-free.
func appendPullRequest(dst []byte, id, stream uint64) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, id, 10)
	dst = append(dst, `,"method":"`+MethodStreamPull+`","params":{"s":`...)
	dst = strconv.AppendUint(dst, stream, 10)
	return append(dst, `}}`...)
}

// openStream performs the JSON open call and returns the stream id.
func (c *Client) openStream(method string, params json.RawMessage) (uint64, error) {
	var resp streamOpenResponse
	if err := c.Call(MethodStreamOpen, streamOpenRequest{Method: method, Params: params}, &resp); err != nil {
		return 0, err
	}
	return resp.Stream, nil
}

// pullStream requests one frame from a stream and decodes it into dec. The
// request is encoded into the client's reused buffer and the frame is read
// into the decoder's, so the steady state allocates nothing.
func (c *Client) pullStream(id uint64, dec *ColumnarDecoder) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.nextID++
	reqID := c.nextID

	deadline := time.Now().Add(c.timeout)
	_ = c.conn.SetDeadline(deadline)
	defer func() { _ = c.conn.SetDeadline(time.Time{}) }()

	c.reqBuf = appendPullRequest(c.reqBuf[:0], reqID, id)
	if err := writeRawFrame(c.conn, c.reqBuf); err != nil {
		return err
	}

	body, isBin, err := readTaggedFrame(c.conn, &dec.buf)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return ErrClosed
		}
		return fmt.Errorf("rpc: call %s: %w", MethodStreamPull, err)
	}
	if isBin {
		return dec.Decode(body)
	}
	// A JSON frame on a pull is the error reply.
	var resp response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("rpc: call %s: unmarshal: %w", MethodStreamPull, err)
	}
	if resp.ID != reqID {
		return fmt.Errorf("rpc: call %s: response id %d, want %d", MethodStreamPull, resp.ID, reqID)
	}
	if resp.Error != "" {
		return &RemoteError{Method: MethodStreamPull, Message: resp.Error}
	}
	return fmt.Errorf("rpc: call %s: unexpected JSON frame on stream", MethodStreamPull)
}

// Puller is a pull-mode stream: each Pull fetches and decodes one frame.
// The returned rows are valid until the next Pull. *StreamClient is the
// network implementation; benchmarks substitute in-process ones.
type Puller interface {
	Pull() ([]StreamRow, error)
}

// StreamClient is a pull-mode stream on a ManagedClient. It transparently
// reopens the stream after a reconnect (fresh server encoder, schema
// resync), so every Pull rides the managed client's breaker, backoff, and
// deadline discipline.
type StreamClient struct {
	m      *ManagedClient
	method string
	params json.RawMessage
	dec    *ColumnarDecoder
	cur    *Client // connection the stream was opened on
	id     uint64
}

// Stream returns a *StreamClient for method. params is marshaled once; the
// stream (re)opens lazily on first Pull and after reconnects.
func (m *ManagedClient) Stream(method string, params any) (Puller, error) {
	var raw json.RawMessage
	if params != nil {
		b, err := json.Marshal(params)
		if err != nil {
			return nil, fmt.Errorf("rpc: marshal stream params: %w", err)
		}
		raw = b
	}
	return &StreamClient{m: m, method: method, params: raw, dec: NewColumnarDecoder()}, nil
}

// Pull fetches and decodes one frame. The returned rows are valid until the
// next Pull.
func (sc *StreamClient) Pull() ([]StreamRow, error) {
	sc.m.mu.Lock()
	defer sc.m.mu.Unlock()
	err := sc.m.do(func(c *Client) error {
		if sc.cur != c {
			id, err := c.openStream(sc.method, sc.params)
			if err != nil {
				return err
			}
			sc.dec.Reset()
			sc.id = id
			sc.cur = c
		}
		return c.pullStream(sc.id, sc.dec)
	})
	if err != nil {
		return nil, err
	}
	return sc.dec.Rows(), nil
}

// Schema returns the stream's schema once the first frame has arrived.
func (sc *StreamClient) Schema() (StreamSchema, bool) { return sc.dec.Schema() }
