package modules

import (
	"time"

	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
)

// Service names announced in the RPC hello. Each data-collection module abc
// has an abc_rpcd counterpart on the remote node (§3.1); both serve their
// data as pulled columnar streams (wire.go).
const (
	ServiceSadc      = "sadc_rpcd"
	ServiceHadoopLog = "hadoop_log_rpcd"
)

// LogSource yields newly finalized state vectors from one node's log of one
// kind. Implementations exist for local buffers and for remote daemons.
type LogSource interface {
	Fetch(now time.Time) ([]hadooplog.StateVector, error)
}

// bufferLogSource parses a hadooplog.Buffer incrementally.
type bufferLogSource struct {
	buf    *hadooplog.Buffer
	parser *hadooplog.Parser
	cursor uint64
}

// NewBufferLogSource creates a LogSource reading from an in-process log
// buffer (local collection mode, and the guts of hadoop_log_rpcd).
func NewBufferLogSource(kind hadooplog.Kind, buf *hadooplog.Buffer) LogSource {
	return &bufferLogSource{buf: buf, parser: hadooplog.NewParser(kind)}
}

func (s *bufferLogSource) Fetch(now time.Time) ([]hadooplog.StateVector, error) {
	lines, next := s.buf.ReadFrom(s.cursor)
	s.cursor = next
	for _, l := range lines {
		if err := s.parser.ParseLine(l); err != nil {
			return nil, err
		}
	}
	s.parser.Flush(now)
	return s.parser.Drain(), nil
}

// healthReporter is implemented by supervised clients (rpc.ManagedClient);
// sources forward it so modules can expose per-node connection health.
type healthReporter interface {
	Health() rpc.Health
}

// sourceHealth extracts connection health from a source's client, if the
// client is supervised.
func sourceHealth(client Streamer) (rpc.Health, bool) {
	hr, ok := client.(healthReporter)
	if !ok {
		return rpc.Health{}, false
	}
	return hr.Health(), true
}

// MetricSource yields one sadc record per collection iteration.
type MetricSource interface {
	Collect() (*sadc.Record, error)
}
