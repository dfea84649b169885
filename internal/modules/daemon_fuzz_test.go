package modules

import (
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/rpc"
)

// FuzzDaemonConn writes arbitrary bytes into a connection served by a
// collection daemon carrying both the sadc_rpcd and hadoop_log_rpcd
// surfaces. Everything a daemon reads from a socket passes through this
// ingress: the hello frame, JSON control frames, tagged binary frames,
// stream-open params and pulls. Whatever the bytes, the server must not
// panic, must end the connection once the client stops writing, and must
// leave no goroutine behind. The committed corpus (testdata/fuzz) seeds
// well-formed sessions over every stream method plus malformed frames.
func FuzzDaemonConn(f *testing.F) {
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(1, 1))
	if err != nil {
		f.Fatal(err)
	}
	n := c.Slaves()[0]
	srv := rpc.NewServer(ServiceSadc)
	RegisterSadcServer(srv, n)
	RegisterHadoopLogServer(srv, n.TaskTrackerLog(), n.DataNodeLog(), c.Now)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = srv.Close() })

	f.Fuzz(func(t *testing.T, in []byte) {
		base := runtime.NumGoroutine()
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		// The server may hang up mid-write; what matters is what follows.
		_, _ = conn.Write(in)
		_ = conn.(*net.TCPConn).CloseWrite()
		// A reset is an end too; only a deadline means the server hung on.
		if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("server kept the connection open after the client finished writing")
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines outlived the connection", runtime.NumGoroutine()-base)
			}
			time.Sleep(time.Millisecond)
		}
	})
}
