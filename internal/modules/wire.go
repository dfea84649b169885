package modules

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/procfs"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
)

// Columnar stream methods served by the collection daemons. Each opens a
// per-connection metric stream, delta-encoded so a steady-state tick costs a
// few bytes per column; the control node pulls one frame per tick.
const (
	// MethodSadcMetrics streams one row per tick: the node-level group plus
	// a group per requested interface and pid.
	MethodSadcMetrics = "sadc.metrics"
	// MethodHadoopLogStream streams newly finalized state vectors, one row
	// per per-second vector.
	MethodHadoopLogStream = "hadoop_log.stream"
)

// sadcStreamRequest configures a sadc.metrics stream open: which extra
// metric groups to carry, and the node name echoed into the schema so
// operators can attribute a stream from either end.
type sadcStreamRequest struct {
	Node   string   `json:"node,omitempty"`
	Ifaces []string `json:"ifaces,omitempty"`
	Pids   []int    `json:"pids,omitempty"`
}

// logStreamRequest configures a hadoop_log.stream open.
type logStreamRequest struct {
	Kind string `json:"kind"`
	Node string `json:"node,omitempty"`
}

// sadcStreamSource adapts a sadc collector to the columnar stream protocol.
// Each open gets its own collector, so the rate baseline lives with the
// stream: a reconnecting client re-opens the stream and re-primes with one
// warmup row, as a restarted daemon would.
type sadcStreamSource struct {
	collector *sadc.Collector
	schema    rpc.StreamSchema
	ifaces    []string
	pids      []int

	// Row scratch, reused every tick: values spans all schema columns,
	// present has one flag per group (an interface or pid missing from this
	// tick's record ships no cells and keeps its delta state untouched).
	values  []float64
	present []bool
}

func newSadcStreamSource(provider procfs.Provider, req sadcStreamRequest) *sadcStreamSource {
	groups := make([]rpc.ColumnGroup, 0, 1+len(req.Ifaces)+len(req.Pids))
	groups = append(groups, rpc.ColumnGroup{Name: "node", Columns: sadc.NodeMetricNames})
	for _, iface := range req.Ifaces {
		groups = append(groups, rpc.ColumnGroup{Name: "net:" + iface, Columns: sadc.NetMetricNames})
	}
	for _, pid := range req.Pids {
		groups = append(groups, rpc.ColumnGroup{Name: "proc:" + strconv.Itoa(pid), Columns: sadc.ProcMetricNames})
	}
	schema := rpc.StreamSchema{Method: MethodSadcMetrics, Node: req.Node, Groups: groups}
	ncols := len(sadc.NodeMetricNames) +
		len(req.Ifaces)*len(sadc.NetMetricNames) +
		len(req.Pids)*len(sadc.ProcMetricNames)
	return &sadcStreamSource{
		collector: sadc.NewCollector(provider),
		schema:    schema,
		ifaces:    req.Ifaces,
		pids:      req.Pids,
		values:    make([]float64, ncols),
		present:   make([]bool, len(groups)),
	}
}

func (s *sadcStreamSource) Schema() rpc.StreamSchema { return s.schema }

func (s *sadcStreamSource) Collect(fw *rpc.FrameWriter) error {
	rec, err := s.collector.Collect()
	if err != nil {
		return err
	}
	copy(s.values[:len(sadc.NodeMetricNames)], rec.Node)
	s.present[0] = true
	off, gi := len(sadc.NodeMetricNames), 1
	for _, iface := range s.ifaces {
		v, ok := rec.Net[iface]
		s.present[gi] = ok
		if ok {
			copy(s.values[off:off+len(sadc.NetMetricNames)], v)
		}
		off += len(sadc.NetMetricNames)
		gi++
	}
	for _, pid := range s.pids {
		v, ok := rec.Proc[pid]
		s.present[gi] = ok
		if ok {
			copy(s.values[off:off+len(sadc.ProcMetricNames)], v)
		}
		off += len(sadc.ProcMetricNames)
		gi++
	}
	fw.AppendRow(rec.Time.UnixNano(), rec.Warmup, s.present, s.values)
	return nil
}

// logStreamSource adapts a log buffer to the columnar stream protocol: one
// row per finalized per-second state vector, zero rows on a quiet tick (the
// cheapest possible frame). Each open reads the buffer through its own
// cursor and parser, so a reconnecting client replays from the start and
// the module's re-served-history guard deduplicates, same as after a daemon
// restart.
type logStreamSource struct {
	schema rpc.StreamSchema
	src    LogSource
	now    func() time.Time
}

func (s *logStreamSource) Schema() rpc.StreamSchema { return s.schema }

func (s *logStreamSource) Collect(fw *rpc.FrameWriter) error {
	vecs, err := s.src.Fetch(s.now())
	if err != nil {
		return err
	}
	for _, v := range vecs {
		fw.AppendRow(v.Time.UnixNano(), false, nil, v.Counts)
	}
	return nil
}

// RegisterSadcServer exposes a sadc collector for one node over RPC as the
// sadc.metrics stream. Collection state (the previous snapshot for rate
// conversion) lives in the daemon, as with the paper's sadc_rpcd; each
// stream open gets its own collector, so its rate baseline is isolated per
// client connection.
func RegisterSadcServer(srv *rpc.Server, provider procfs.Provider) {
	srv.HandleStream(MethodSadcMetrics, func(params json.RawMessage) (rpc.StreamSource, error) {
		var req sadcStreamRequest
		if len(params) > 0 {
			if err := json.Unmarshal(params, &req); err != nil {
				return nil, err
			}
		}
		return newSadcStreamSource(provider, req), nil
	})
}

// RegisterHadoopLogServer exposes the node's TaskTracker and DataNode log
// parsers over RPC as the hadoop_log.stream stream. now supplies the flush
// horizon (virtual time in simulation, wall clock in deployment).
func RegisterHadoopLogServer(srv *rpc.Server, tt, dn *hadooplog.Buffer, now func() time.Time) {
	srv.HandleStream(MethodHadoopLogStream, func(params json.RawMessage) (rpc.StreamSource, error) {
		var req logStreamRequest
		if err := json.Unmarshal(params, &req); err != nil {
			return nil, err
		}
		var kind hadooplog.Kind
		var buf *hadooplog.Buffer
		switch req.Kind {
		case hadooplog.KindTaskTracker.String():
			kind, buf = hadooplog.KindTaskTracker, tt
		case hadooplog.KindDataNode.String():
			kind, buf = hadooplog.KindDataNode, dn
		default:
			return nil, fmt.Errorf("unknown log kind %q", req.Kind)
		}
		return &logStreamSource{
			schema: rpc.StreamSchema{
				Method: MethodHadoopLogStream,
				Node:   req.Node,
				Groups: []rpc.ColumnGroup{{Name: "counts", Columns: hadooplog.MetricNamesFor(kind)}},
			},
			src: NewBufferLogSource(kind, buf),
			now: now,
		}, nil
	})
}

// columnarMetricSource reads sadc records from a node's sadc.metrics
// stream. Decoded rows are copied into a fresh Record, since the decoder
// reuses row storage across ticks.
type columnarMetricSource struct {
	stream rpc.Puller
	ifaces []string
	pids   []int
}

// NewColumnarMetricSource creates a MetricSource pulling the sadc.metrics
// stream for node from client.
func NewColumnarMetricSource(client Streamer, node string, ifaces []string, pids []int) (MetricSource, error) {
	stream, err := client.Stream(MethodSadcMetrics, sadcStreamRequest{Node: node, Ifaces: ifaces, Pids: pids})
	if err != nil {
		return nil, err
	}
	return &columnarMetricSource{stream: stream, ifaces: ifaces, pids: pids}, nil
}

func (s *columnarMetricSource) Collect() (*sadc.Record, error) {
	rows, err := s.stream.Pull()
	if err != nil {
		return nil, err
	}
	if len(rows) != 1 {
		return nil, fmt.Errorf("sadc.metrics: %d rows per tick, want 1", len(rows))
	}
	row := rows[0]
	nNode, nNet, nProc := len(sadc.NodeMetricNames), len(sadc.NetMetricNames), len(sadc.ProcMetricNames)
	want := nNode + len(s.ifaces)*nNet + len(s.pids)*nProc
	if len(row.Values) != want || len(row.Present) != 1+len(s.ifaces)+len(s.pids) {
		return nil, fmt.Errorf("sadc.metrics: schema mismatch: %d columns / %d groups, want %d / %d",
			len(row.Values), len(row.Present), want, 1+len(s.ifaces)+len(s.pids))
	}
	rec := &sadc.Record{
		Time:   time.Unix(0, row.TimeNanos).UTC(),
		Warmup: row.Warmup,
		Node:   append([]float64(nil), row.Values[:nNode]...),
	}
	off, gi := nNode, 1
	for _, iface := range s.ifaces {
		if row.Present[gi] {
			if rec.Net == nil {
				rec.Net = make(map[string][]float64, len(s.ifaces))
			}
			rec.Net[iface] = append([]float64(nil), row.Values[off:off+nNet]...)
		}
		off += nNet
		gi++
	}
	for _, pid := range s.pids {
		if row.Present[gi] {
			if rec.Proc == nil {
				rec.Proc = make(map[int][]float64, len(s.pids))
			}
			rec.Proc[pid] = append([]float64(nil), row.Values[off:off+nProc]...)
		}
		off += nProc
		gi++
	}
	return rec, nil
}

// columnarLogSource reads state vectors from a node's hadoop_log.stream
// stream.
type columnarLogSource struct {
	stream rpc.Puller
	dims   int
}

// NewColumnarLogSource creates a LogSource pulling the hadoop_log.stream
// stream of the given kind for node from client.
func NewColumnarLogSource(client Streamer, node string, kind hadooplog.Kind) (LogSource, error) {
	stream, err := client.Stream(MethodHadoopLogStream, logStreamRequest{Kind: kind.String(), Node: node})
	if err != nil {
		return nil, err
	}
	return &columnarLogSource{stream: stream, dims: hadooplog.MetricDims(kind)}, nil
}

func (s *columnarLogSource) Fetch(time.Time) ([]hadooplog.StateVector, error) {
	rows, err := s.stream.Pull()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, nil
	}
	out := make([]hadooplog.StateVector, len(rows))
	for i, r := range rows {
		if len(r.Values) != s.dims {
			return nil, fmt.Errorf("hadoop_log.stream: %d columns, want %d", len(r.Values), s.dims)
		}
		out[i] = hadooplog.StateVector{
			Time:   time.Unix(0, r.TimeNanos).UTC(),
			Counts: append([]float64(nil), r.Values...),
		}
	}
	return out, nil
}
