package obs

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// The live endpoint over real HTTP: readiness, the /stats snapshot before and
// after a publish, and a Shutdown that lets the request in flight finish.
func TestLiveServerServesAndDrains(t *testing.T) {
	s, err := NewLiveServer("localhost:0")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	if got := get("/healthz"); got != "ok\n" {
		t.Errorf("/healthz = %q, want ok", got)
	}
	if got := get("/stats"); got != `{"at":0,"stats":{}}`+"\n" {
		t.Errorf("/stats before any publish = %q", got)
	}
	reg := stats.NewRegistry("")
	reg.NewScalar("mc.reads", "reads served").Add(3)
	s.PublishStats(reg, 5*sim.Microsecond)
	published := get("/stats")
	if !strings.HasPrefix(published, fmt.Sprintf(`{"at":%d,"stats":{`, int64(5*sim.Microsecond))) || !strings.Contains(published, `"mc.reads"`) {
		t.Errorf("/stats after a publish = %q", published)
	}

	// A request whose header is still open when Shutdown starts is in flight:
	// Shutdown must wait for it, and it must be answered in full.
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /stats HTTP/1.1\r\nHost: %s\r\n", s.Addr())
	down := make(chan error, 1)
	go func() { down <- s.Shutdown(5 * time.Second) }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c, err := net.Dial("tcp", s.Addr())
		if err != nil {
			break // the listener is closed: Shutdown is draining
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never closed the listener")
		}
	}
	select {
	case err := <-down:
		t.Fatalf("Shutdown returned (%v) with a request in flight", err)
	default:
	}
	fmt.Fprint(conn, "\r\n")
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("in-flight request dropped: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil || string(body) != published {
		t.Errorf("in-flight /stats = %q (err %v), want the published snapshot", body, err)
	}
	if err := <-down; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := s.Shutdown(time.Second); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}
