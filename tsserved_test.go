package tsspace_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"tsspace"
	"tsspace/internal/obs"
	"tsspace/tsserve"
)

// requiredFamilies are the metric families every daemon exposes on
// GET /metrics/prometheus. The tsserve_ns_* and tsspace_* ones are
// per-namespace and must sample the default namespace, whose space the
// daemon always meters.
var requiredFamilies = []string{
	"tsserve_ns_calls_total",
	"tsserve_ns_attaches_total",
	"tsserve_batches_total",
	"tsserve_wire_sessions",
	"tsserve_uptime_seconds",
	"tsserve_getts_latency_ns",
	"tsserve_ns_sessions",
	"tsserve_unknown_namespaces_total",
	"tsspace_registers_total",
	"tsspace_registers_used",
	"tsspace_register_reads_total",
	"tsspace_register_writes_total",
}

// TestCLITsserved builds tsserved and drives a spawned daemon serving
// collect, a long-lived object, over all three listeners: what the
// in-process tsserve tests cannot show is the flag wiring, the debug mux
// and the signal drain. The one-shot regime's lease lifecycle is pinned
// in process (tsserve's TestOneShotLifecycleEvents).
func TestCLITsserved(t *testing.T) {
	bin := filepath.Join(buildCommands(t, "./cmd/tsserved"), "tsserved")
	t.Run("collect", func(t *testing.T) { driveDaemon(t, bin) })
}

// driveDaemon spawns bin with -alg collect. Two wire-v2 batches and a
// wire-v3 batch on the default namespace must order under tsspace.Less;
// an abandoned lease must be reaped after -session-ttl, as the flight
// recorder on the debug listener tells; the Prometheus exposition must
// parse and carry every required family; and SIGTERM must drain to exit
// status 0.
func driveDaemon(t *testing.T, bin string) {
	addr, binAddr, debugAddr := freeAddrs(t)
	var logs bytes.Buffer // read only after Wait, which ends the copying
	cmd := exec.Command(bin, "-addr", addr, "-binary-addr", binAddr, "-debug-addr", debugAddr,
		"-session-ttl", "200ms", "-alg", "collect", "-procs", "8")
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waited := false
	t.Cleanup(func() {
		if !waited {
			cmd.Process.Kill()
			cmd.Wait()
			t.Logf("daemon log:\n%s", logs.String())
		}
	})
	eventsURL := "http://" + debugAddr + "/debug/events"
	t.Cleanup(func() {
		if t.Failed() {
			body, err := get(eventsURL)
			t.Logf("/debug/events (err %v):\n%s", err, body)
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := tsserve.NewClient("http://"+addr, nil)
	poll(t, "/healthz to answer", func() bool {
		h, err := c.Health(ctx)
		return err == nil && h.Status == "ok"
	})

	// Wire v2: one lease, two batches, detach. Then wire v3 on the same
	// object. Less is a strict total order, so consecutive pairs suffice.
	var issued []tsspace.Timestamp
	buf := make([]tsspace.Timestamp, 4)
	hs, err := c.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		n, err := hs.GetTSBatch(ctx, buf)
		if err != nil {
			t.Fatalf("wire-v2 batch %d: %v", b, err)
		}
		issued = append(issued, buf[:n]...)
	}
	if err := hs.Detach(); err != nil {
		t.Fatal(err)
	}
	bc := tsserve.NewBinaryClient(binAddr)
	defer bc.Close()
	bs, err := bc.AttachNamespace(ctx, tsserve.DefaultNamespace)
	if err != nil {
		t.Fatal(err)
	}
	n, err := bs.GetTSBatch(ctx, buf)
	if err != nil {
		t.Fatalf("wire-v3 batch: %v", err)
	}
	issued = append(issued, buf[:n]...)
	if err := bs.Detach(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(issued); i++ {
		if !tsspace.Less(issued[i-1], issued[i]) {
			t.Fatalf("timestamp %d %v does not order after %d %v (wire v2: 0–7, wire v3: 8–11)",
				i, issued[i], i-1, issued[i-1])
		}
	}

	// An abandoned lease: the reaper retires it after the TTL, and the
	// flight recorder shows its attach and its reap.
	abandoned, err := c.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	poll(t, "the abandoned lease's attach and reap events", func() bool {
		body, err := get(eventsURL)
		if err != nil {
			return false
		}
		var attached, reaped bool
		sc := bufio.NewScanner(strings.NewReader(body))
		for sc.Scan() {
			var e struct{ Kind, Session string }
			if json.Unmarshal(sc.Bytes(), &e) != nil || e.Session != abandoned.ID() {
				continue
			}
			attached = attached || e.Kind == "attach"
			reaped = reaped || e.Kind == "reap"
		}
		return attached && reaped
	})

	resp, err := http.Get("http://" + addr + "/metrics/prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("exposition Content-Type %q, want text/plain", ct)
	}
	families, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("malformed exposition: %v\n%s", err, body)
	}
	for _, name := range requiredFamilies {
		f, ok := families[name]
		if !ok {
			t.Errorf("exposition has no family %s", name)
			continue
		}
		perNS := strings.HasPrefix(name, "tsserve_ns_") || strings.HasPrefix(name, "tsspace_")
		if perNS && !slices.Contains(f.Labels, `namespace="default"`) {
			t.Errorf("%s has no namespace=\"default\" sample (labels: %v)", name, f.Labels)
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.WireSessions != 0 || m.ReapedSessions != 1 || m.BinaryFrames == 0 {
		t.Errorf("/metrics: wire_sessions %d, reaped_sessions %d, binary_frames %d; want 0, 1 and > 0",
			m.WireSessions, m.ReapedSessions, m.BinaryFrames)
	}
	var calls uint64
	for _, nm := range m.Namespaces {
		if nm.Name == tsserve.DefaultNamespace {
			calls = nm.Calls
		}
	}
	if calls != uint64(len(issued)) {
		t.Errorf("default namespace counted %d calls, want %d", calls, len(issued))
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	waited = true
	if err != nil || !strings.Contains(logs.String(), "drained, bye") {
		t.Errorf("after SIGTERM: exit %v, want status 0 and \"drained, bye\"; log:\n%s", err, logs.String())
	}
}

// freeAddrs returns three distinct loopback addresses that were free a
// moment ago.
func freeAddrs(t *testing.T) (a, b, c string) {
	t.Helper()
	var addrs [3]string
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs[0], addrs[1], addrs[2]
}

// poll calls ok every 20 ms until it reports true, and fails the test
// after 10 s.
func poll(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// get returns the body of a 200 answer to GET url.
func get(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), err
}
