package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"wanshuffle/internal/obs"
)

// syncWriter is a goroutine-safe buffer for capturing run() output while
// the test polls it.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

var urlRe = regexp.MustCompile(`serving at (http://[^ ]+) `)

// wansim is one run of the CLI executing in the background: done is closed
// once it has returned err.
type wansim struct {
	out    *syncWriter
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

// goWansim starts run in the background, capturing its output.
func goWansim(run func(stdout io.Writer) error) *wansim {
	w := &wansim{out: &syncWriter{}, done: make(chan struct{})}
	go func() {
		w.err = run(w.out)
		close(w.done)
	}()
	return w
}

// wait blocks until the run has returned and reports its error.
func (w *wansim) wait(t *testing.T) error {
	t.Helper()
	select {
	case <-w.done:
	case <-time.After(15 * time.Second):
		t.Fatal("wansim did not return")
	}
	return w.err
}

// startWansim runs wansim with args under a cancelable context. Cleanup
// cancels it (cutting any linger short) and waits for it to return, so no
// cluster or endpoint outlives its test.
func startWansim(t *testing.T, args ...string) *wansim {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := goWansim(func(stdout io.Writer) error { return runContext(ctx, args, stdout, io.Discard) })
	w.cancel = cancel
	t.Cleanup(func() {
		cancel()
		w.wait(t)
	})
	return w
}

// url waits for the telemetry endpoint's announcement and returns its base
// URL.
func (w *wansim) url(t *testing.T) string {
	t.Helper()
	var url string
	waitTest(t, "telemetry URL in output", func() bool {
		if m := urlRe.FindStringSubmatch(w.out.String()); m != nil {
			url = m[1]
		}
		return url != ""
	})
	return url
}

// waitOutput waits until the run has printed substr.
func (w *wansim) waitOutput(t *testing.T, substr string) {
	t.Helper()
	waitTest(t, fmt.Sprintf("%q in output", substr), func() bool {
		if strings.Contains(w.out.String(), substr) {
			return true
		}
		select {
		case <-w.done:
			if !strings.Contains(w.out.String(), substr) {
				t.Fatalf("wansim returned (%v) without printing %q:\n%s", w.err, substr, w.out.String())
			}
		default:
		}
		return false
	})
}

// httpGet fetches url and returns the status and body.
func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestReportEndpointMatchesReportFile runs wansim with both -report and
// -telemetry-addr and checks GET /report returns byte-for-byte the JSON
// the -report flag wrote: one report object, one encoding path, in both
// backends.
func TestReportEndpointMatchesReportFile(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"sim", nil},
		{"live", []string{"-live"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "report.json")
			w := startWansim(t, append([]string{
				"-workload", "wordcount", "-scale", "0.02",
				"-telemetry-addr", "127.0.0.1:0", "-telemetry-linger", "30s",
				"-report", path,
			}, tc.args...)...)
			url := w.url(t)
			w.waitOutput(t, "run report written")
			fileBytes, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			status, body := httpGet(t, url+"/report")
			if status != http.StatusOK {
				t.Fatalf("GET /report: %d", status)
			}
			if !bytes.Equal(body, fileBytes) {
				t.Fatalf("GET /report diverges from the -report file:\nendpoint %d bytes\nfile %d bytes", len(body), len(fileBytes))
			}

			// The metrics endpoint renders the same report first.
			rep, err := obs.DecodeReport(bytes.NewReader(fileBytes))
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := obs.WriteProm(&want, obs.ReportPoints(rep)); err != nil {
				t.Fatal(err)
			}
			if _, metrics := httpGet(t, url+"/metrics"); !bytes.HasPrefix(metrics, want.Bytes()) {
				t.Fatalf("/metrics does not open with the report's gauges:\n%s\nwant prefix:\n%s", metrics, want.Bytes())
			}
		})
	}
}

// TestFlagValidation checks the data-plane flags fail loudly on
// non-positive values instead of silently misbehaving.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"zero scale", []string{"-scale", "0"}, "-scale must be positive and finite"},
		{"negative scale", []string{"-scale", "-1"}, "-scale must be positive and finite"},
		{"infinite scale", []string{"-scale", "+Inf"}, "-scale must be positive and finite"},
		{"NaN scale", []string{"-scale", "NaN"}, "-scale must be positive and finite"},
		{"zero chunk records", []string{"-chunk-records", "0"}, "-chunk-records must be positive"},
		{"negative chunk records", []string{"-chunk-records", "-3"}, "-chunk-records must be positive"},
		{"zero memory budget", []string{"-memory-budget", "0"}, "-memory-budget must be positive"},
		{"negative memory budget", []string{"-memory-budget", "-64KB"}, "-memory-budget must be positive"},
		{"garbage memory budget", []string{"-memory-budget", "lots"}, "cannot parse"},
		{"negative telemetry linger", []string{"-telemetry-linger", "-5s"}, "-telemetry-linger must not be negative"},
		{"unknown topology", []string{"-topology", "moon"}, "unknown -topology"},
		{"unknown aggregator", []string{"-aggregator", "fastest"}, "unknown aggregator policy"},
		{"random aggregator live", []string{"-aggregator", "random", "-live"}, "not supported with -live"},
		{"centralized scheme live", []string{"-scheme", "centralized", "-live"}, "-live supports schemes spark and agg"},
		{"manual scheme live", []string{"-scheme", "manual", "-live"}, "-live supports schemes spark and agg"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-workload", "wordcount", "-scale", "0.01"}, tc.args...)
			err := run(args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestIneffectiveFlagsWarn checks the footgun warnings: a flag that is
// valid but does nothing in the chosen mode must say so on stderr instead of
// silently doing nothing.
func TestIneffectiveFlagsWarn(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"linger without telemetry", []string{"-telemetry-linger", "1ms"}, "-telemetry-linger 1ms has no effect without -telemetry-addr"},
		{"single-run flags under serve",
			[]string{"-serve", "-telemetry-addr", "127.0.0.1:0", "-workload", "sort", "-gantt", "-chrome", "x.json", "-matrix", "-report", "x.json", "-validate"},
			"-chrome, -gantt, -matrix, -report, -validate, -workload has no effect with -serve"},
		{"linger under serve",
			[]string{"-serve", "-telemetry-addr", "127.0.0.1:0", "-telemetry-linger", "30s"},
			"-telemetry-linger has no effect with -serve"},
		{"live-only flags without live",
			[]string{"-compress", "flate", "-chunk-records", "64", "-dial-timeout", "1s", "-io-timeout", "1s",
				"-memory-budget", "4KB", "-spill-dir", "spill", "-topology", "micro"},
			"-chunk-records, -compress, -dial-timeout, -io-timeout, -memory-budget, -spill-dir, -topology has no effect without -live"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stderr bytes.Buffer
			if _, err := parseOptions(tc.args, &stderr); err != nil {
				t.Fatalf("parseOptions: %v", err)
			}
			if got := stderr.String(); !strings.Contains(got, tc.want) || strings.Count(got, "warning") != 1 {
				t.Fatalf("want one warning containing %q on stderr, got:\n%s", tc.want, got)
			}
		})
	}
}

func TestParseByteSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
	}{
		{"", 0}, {"65536", 65536}, {"64KB", 64e3}, {"64KiB", 64 << 10},
		{"16MB", 16e6}, {"16MiB", 16 << 20}, {"2GB", 2e9}, {"2GiB", 2 << 30},
		{"5K", 5e3}, {"3M", 3e6}, {"1G", 1e9}, {"128B", 128}, {" 8kb ", 8e3},
	} {
		got, err := parseByteSize("-memory-budget", tc.in)
		if err != nil || got != tc.want {
			t.Errorf("parseByteSize(%q) = (%d, %v), want %d", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"0", "-1", "KB", "4TB", "1.5MB"} {
		if _, err := parseByteSize("-memory-budget", bad); err == nil {
			t.Errorf("parseByteSize(%q) accepted", bad)
		}
	}
}

func waitTest(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
