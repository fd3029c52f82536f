package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	buildDir  string
	binPath   string
	buildErr  error
)

// TestMain removes the binary the smoke tests built.
func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

func simdBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "picl-simd-smoke")
		if buildErr != nil {
			return
		}
		binPath = filepath.Join(buildDir, "picl-simd")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			binPath = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("build: %v\n%s", buildErr, binPath)
	}
	return binPath
}

// bootDaemon starts the binary and returns its base URL, a function
// that SIGTERMs it and returns the full stdout, and the stderr buffer.
func bootDaemon(t *testing.T, args ...string) (string, func() string) {
	t.Helper()
	cmd := exec.Command(simdBin(t), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	urlCh := make(chan string, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			lines = append(lines, line)
			mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				fields := strings.Fields(line[i+len("listening on "):])
				select {
				case urlCh <- fields[0]:
				default:
				}
			}
		}
	}()
	select {
	case url := <-urlCh:
		stop := func() string {
			cmd.Process.Signal(syscall.SIGTERM)
			if err := cmd.Wait(); err != nil {
				t.Fatalf("daemon exit: %v\nstderr: %s", err, stderr.String())
			}
			<-done
			mu.Lock()
			defer mu.Unlock()
			return strings.Join(lines, "\n") + "\n"
		}
		return url, stop
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon never reported a listen address; stderr: %s", stderr.String())
		return "", nil
	}
}

// TestSmokeBootServeShutdown is the daemon's golden path: boot with a
// store, serve one request, shut down cleanly on SIGTERM, and report
// the request count.
func TestSmokeBootServeShutdown(t *testing.T) {
	store := t.TempDir()
	url, stop := bootDaemon(t, "-addr", "127.0.0.1:0", "-store", store, "-factor", "1024", "-epochs", "2")

	resp, err := http.Get(url + "/run?scheme=picl&bench=gcc")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Picl-Source"); got != "computed" {
		t.Fatalf("source = %q, want computed", got)
	}

	h, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(h.Body)
	h.Body.Close()
	if string(hb) != "ok\n" {
		t.Fatalf("/healthz = %q", hb)
	}

	out := stop()
	for _, want := range []string{
		"picl-simd: store " + store + ": 0 warm results, 0 blocks",
		"picl-simd: listening on http://127.0.0.1:",
		"picl-simd: shutdown: 1 requests served",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("stdout missing %q:\n%s", want, out)
		}
	}

	// Reboot on the same store: the persisted result is warm.
	url2, stop2 := bootDaemon(t, "-addr", "127.0.0.1:0", "-store", store, "-factor", "1024", "-epochs", "2")
	resp2, err := http.Get(url2 + "/run?scheme=picl&bench=gcc")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Picl-Source"); got != "hit" {
		t.Fatalf("rebooted source = %q, want hit (durable store)", got)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("rebooted daemon served different bytes for the same cell")
	}
	out2 := stop2()
	if !strings.Contains(out2, "1 warm results") {
		t.Fatalf("reboot did not report the warm result:\n%s", out2)
	}
}

func TestSmokeNoStoreMode(t *testing.T) {
	url, stop := bootDaemon(t, "-addr", "127.0.0.1:0", "-factor", "1024", "-epochs", "2")
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mb), "picl_serve_uptime_seconds") {
		t.Fatalf("metrics missing uptime:\n%s", mb)
	}
	if strings.Contains(string(mb), "store_records") {
		t.Fatal("memory-only daemon exported store gauges")
	}
	out := stop()
	if !strings.Contains(out, "no -store: serving from the in-process memo only") {
		t.Fatalf("stdout missing memory-only banner:\n%s", out)
	}
	if !strings.Contains(out, "shutdown: 0 requests served") {
		t.Fatalf("stdout missing shutdown line:\n%s", out)
	}
}

// TestSmokeBadScaleExits2: a scale that would hang every cell or
// serve NaN exits 2 before the daemon listens.
func TestSmokeBadScaleExits2(t *testing.T) {
	for _, args := range [][]string{{"-factor", "-4"}, {"-factor", "0"}, {"-epochs", "0"}} {
		out, err := exec.Command(simdBin(t), append([]string{"-addr", "127.0.0.1:0"}, args...)...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 || strings.Contains(string(out), "listening") {
			t.Errorf("%v: err %v, output %q; want exit 2 before listening", args, err, out)
		}
	}
}

func TestSmokeBadStoreExitsNonzero(t *testing.T) {
	f := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(simdBin(t), "-store", filepath.Join(f, "sub"))
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("bad -store: err=%v out=%s", err, out)
	}
}

func init() {
	// Guard against the daemon outliving a wedged test run.
	go func() {
		time.Sleep(10 * time.Minute)
		fmt.Fprintln(os.Stderr, "picl-simd smoke: watchdog expired")
		os.Exit(2)
	}()
}
