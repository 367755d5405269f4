package obs

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Live observation endpoint (-obs-http). The simulation goroutine never
// serves HTTP: at each sampling tick it *publishes* pre-rendered JSON
// snapshots under a mutex, and the HTTP goroutines only ever read those
// bytes. That keeps the kernel deterministic (no request-dependent work on
// the sim thread) and race-free (the live registry is never read
// concurrently with the sim mutating it).
//
// Routes:
//
//	/           index
//	/healthz    readiness probe
//	/stats      latest stats.Registry snapshot (JSON object)
//	/series     recent per-controller samples (JSON array, bounded history)
//	/debug/pprof/...  the standard pprof handlers
type LiveServer struct {
	ln  net.Listener
	srv *http.Server

	mu        sync.Mutex
	statsSnap []byte   // latest registry dump, or nil before the first publish
	rows      [][]byte // pre-rendered /series rows, oldest first
	dropped   int      // rows evicted from the history
}

// maxSeriesRows bounds the /series history so an -obs-http run cannot grow
// memory without bound; older rows are evicted (and counted as dropped).
const maxSeriesRows = 4096

// NewLiveServer starts listening on addr ("localhost:6060", ":0", ...) and
// serves in the background until Shutdown.
func NewLiveServer(addr string) (*LiveServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: http endpoint: %w", err)
	}
	mux := http.NewServeMux()
	s := &LiveServer{ln: ln, srv: &http.Server{Handler: mux}}
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/series", s.handleSeries)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *LiveServer) Addr() string { return s.ln.Addr().String() }

// Shutdown stops accepting connections and drains in-flight requests for up
// to grace, then force-closes whatever is left — so SIGINT/SIGTERM never cut
// a response short. Safe to call more than once.
func (s *LiveServer) Shutdown(grace time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

// PublishStats renders the registry and swaps it in as the /stats snapshot.
// Call from the simulation goroutine only (typically the sampler hook).
func (s *LiveServer) PublishStats(reg *stats.Registry, now sim.Tick) {
	var buf bytes.Buffer
	buf.WriteString(`{"at":`)
	buf.WriteString(strconv.FormatInt(int64(now), 10))
	buf.WriteString(`,"stats":`)
	if err := reg.DumpJSON(&buf); err != nil {
		return
	}
	buf.WriteString("}")
	s.mu.Lock()
	s.statsSnap = buf.Bytes()
	s.mu.Unlock()
}

// PublishSample appends one controller sample — a row the sampler took — to
// the /series history. Call from the simulation goroutine only.
func (s *LiveServer) PublishSample(now sim.Tick, name string, sm Sample) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf,
		`{"at":%d,"src":%q,"readQueueLen":%d,"writeQueueLen":%d,"busUtilisation":%g,"rowHitRate":%g,"draining":%t,"banksOpen":%d,"bandwidth":%g}`,
		int64(now), name, sm.ReadQueueLen, sm.WriteQueueLen,
		sm.BusUtilisation, sm.RowHitRate, sm.Draining, countOpen(sm.BanksOpen), sm.Bandwidth)
	s.mu.Lock()
	s.rows = append(s.rows, buf.Bytes())
	if len(s.rows) > maxSeriesRows {
		over := len(s.rows) - maxSeriesRows
		s.rows = append([][]byte(nil), s.rows[over:]...)
		s.dropped += over
	}
	s.mu.Unlock()
}

func countOpen(banks []bool) int {
	n := 0
	for _, b := range banks {
		if b {
			n++
		}
	}
	return n
}

func (s *LiveServer) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "dramctrl live observation endpoint")
	fmt.Fprintln(w, "  /healthz      readiness probe")
	fmt.Fprintln(w, "  /stats        latest registry snapshot (JSON)")
	fmt.Fprintln(w, "  /series       recent controller samples (JSON)")
	fmt.Fprintln(w, "  /debug/pprof  runtime profiles")
}

func (s *LiveServer) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	snap := s.statsSnap
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if snap == nil {
		fmt.Fprintln(w, `{"at":0,"stats":{}}`)
		return
	}
	w.Write(snap) //nolint:errcheck
}

func (s *LiveServer) handleSeries(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	rows := s.rows
	dropped := s.dropped
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"dropped":%d,"samples":[`, dropped)
	for i, row := range rows {
		if i > 0 {
			w.Write([]byte{','}) //nolint:errcheck
		}
		w.Write(row) //nolint:errcheck
	}
	fmt.Fprintln(w, "]}")
}
