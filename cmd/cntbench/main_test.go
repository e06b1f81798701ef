package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestRunErrors checks that a bad invocation fails before any experiment
// runs or any output directory is created.
func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown experiment", []string{"-only", "E99"}, "E99"},
		{"unknown among valid", []string{"-only", "E1,nope"}, "nope"},
		{"unparseable flag", []string{"-jobs", "abc"}, "invalid value"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "results")
			var out, errBuf bytes.Buffer
			err := run(append(c.args, "-out", dir), &out, &errBuf)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", c.args, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run(%v) error %q does not mention %q", c.args, err, c.want)
			}
			if _, statErr := os.Stat(dir); !os.IsNotExist(statErr) {
				t.Fatalf("failed invocation still created the output directory %s", dir)
			}
		})
	}
}

// TestRunSingleExperiment smoke-tests the success path on the cheapest
// experiment (E1 is a static device table, no simulation) and checks the
// artifact set lands on disk.
func TestRunSingleExperiment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-only", "E1", "-quick", "-out", dir}, &out, &errBuf); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	for _, f := range []string{"E1.txt", "E1.csv", "INDEX.txt", "RESULTS.md"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}
	if !strings.Contains(out.String(), "E1") {
		t.Errorf("stdout missing the rendered table:\n%s", out.String())
	}
}

// TestRunJSONSummary checks the -json machine-readable summary: one
// record per experiment carrying the full table.
func TestRunJSONSummary(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-only", "E1,E2", "-quick", "-out", dir, "-json", jsonPath}, &out, &errBuf); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum jsonSummary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatalf("summary is not valid JSON: %v\n%s", err, raw)
	}
	if sum.Seed != 1 || !sum.Quick {
		t.Errorf("summary header = %+v", sum)
	}
	if len(sum.Experiments) != 2 || sum.Experiments[0].ID != "E1" || sum.Experiments[1].ID != "E2" {
		t.Fatalf("experiments = %+v, want E1 then E2", sum.Experiments)
	}
	for _, r := range sum.Experiments {
		if r.Title == "" || len(r.Columns) == 0 || len(r.Rows) == 0 || r.Seconds < 0 {
			t.Errorf("%s record incomplete: %+v", r.ID, r)
		}
	}
}

// TestRunInterrupted drives the SIGINT/SIGTERM path through the
// testable seam: a cancelled context must stop the batch, flush
// INDEX.txt and RESULTS.md with PARTIAL markers, skip the -json
// summary, and surface a nonzero "partial" error.
func TestRunInterrupted(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	jsonPath := filepath.Join(t.TempDir(), "bench.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errBuf bytes.Buffer
	err := runCtx(ctx, []string{"-only", "E1,E2", "-quick", "-out", dir, "-json", jsonPath}, &out, &errBuf)
	if err == nil {
		t.Fatal("interrupted batch returned nil error")
	}
	if !strings.Contains(err.Error(), "partial") {
		t.Errorf("error %q does not mark the results as partial", err)
	}
	index, readErr := os.ReadFile(filepath.Join(dir, "INDEX.txt"))
	if readErr != nil {
		t.Fatalf("interrupted batch wrote no INDEX.txt: %v", readErr)
	}
	if !strings.Contains(string(index), "PARTIAL") {
		t.Errorf("INDEX.txt missing the PARTIAL marker:\n%s", index)
	}
	md, readErr := os.ReadFile(filepath.Join(dir, "RESULTS.md"))
	if readErr != nil {
		t.Fatalf("interrupted batch wrote no RESULTS.md: %v", readErr)
	}
	if !strings.Contains(string(md), "PARTIAL RESULTS") {
		t.Errorf("RESULTS.md missing the PARTIAL marker:\n%s", md)
	}
	if _, statErr := os.Stat(jsonPath); !os.IsNotExist(statErr) {
		t.Error("interrupted batch still wrote the -json summary")
	}
}

// TestRunWithProgressAndMetricsAddr exercises the live-introspection
// flags end to end on a cheap experiment: the run must succeed, report
// the listening address, and the progress machinery must not disturb the
// artifacts.
func TestRunWithProgressAndMetricsAddr(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	var out, errBuf bytes.Buffer
	args := []string{"-only", "E1", "-quick", "-out", dir,
		"-progress", "1ms", "-metrics-addr", "127.0.0.1:0"}
	if err := run(args, &out, &errBuf); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "serving metrics at http://127.0.0.1:") {
		t.Errorf("stderr does not report the metrics address:\n%s", errBuf.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "E1.txt")); err != nil {
		t.Errorf("missing artifact: %v", err)
	}
}

// TestMetricsHandler drives the /metrics endpoint directly: valid JSON,
// the batch counters, and sorted running IDs; unknown paths 404.
func TestMetricsHandler(t *testing.T) {
	st := newRunStatus(5)
	st.start("E7")
	st.start("E3")
	st.finish("E3")
	var handlerErr bytes.Buffer
	h := metricsHandler(st, &handlerErr)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	var v view
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	if v.Done != 1 || v.Total != 5 || len(v.Running) != 1 || v.Running[0] != "E7" {
		t.Errorf("view = %+v, want 1/5 done with E7 running", v)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != 404 {
		t.Errorf("unknown path status = %d, want 404", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 200 {
		t.Errorf("pprof cmdline status = %d, want 200", rec.Code)
	}
}

// TestViewString pins the progress line's shape.
func TestViewString(t *testing.T) {
	st := newRunStatus(3)
	st.start("E2")
	line := st.snapshot().String()
	if !strings.Contains(line, "0/3 done") || !strings.Contains(line, "[E2]") {
		t.Errorf("progress line %q missing counts or running IDs", line)
	}
}

// TestRunReplayFlagValidation pins that the record/gate flags are
// meaningless without -replay and fail eagerly.
func TestRunReplayFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-replay-json", "x.json"},
		{"-replay-baseline", "x.json"},
	} {
		var out, errBuf bytes.Buffer
		err := run(args, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), "-replay") {
			t.Errorf("run(%v) = %v, want an error demanding -replay", args, err)
		}
	}
}

// TestRunReplayRoundTrip measures quick-suite replay throughput with
// -replay, writes the record, re-reads it as the committed baseline and
// checks the gate passes against itself (the same machine moments
// later cannot regress 20%).
func TestRunReplayRoundTrip(t *testing.T) {
	record := filepath.Join(t.TempDir(), "replay.json")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-replay", "-quick", "-replay-passes", "1", "-replay-json", record}, &out, &errBuf); err != nil {
		t.Fatalf("run(-replay): %v (stderr: %s)", err, errBuf.String())
	}
	for _, want := range []string{"replay throughput", "baseline", "cnt-cache", "Maccess/s"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
	bench, err := readReplayBench(record)
	if err != nil {
		t.Fatalf("record not readable: %v", err)
	}
	if len(bench.Variants) != 2 || bench.Passes != 1 || !bench.Quick {
		t.Fatalf("record = %+v, want 2 variants from one quick pass", bench)
	}
	for _, v := range bench.Variants {
		if v.Accesses == 0 || v.AccessesPerSec <= 0 {
			t.Errorf("variant %s measured nothing: %+v", v.Variant, v)
		}
	}

	// The passing gate runs against a copy of the record scaled a
	// millionfold slower, so the wall-clock noise between two ~10 ms
	// passes cannot fail it; the tolerance logic itself is covered with
	// injected figures by experiments.TestReplayCheckAgainst.
	slow := *bench
	slow.Variants = append([]experiments.ReplayMeasurement(nil), bench.Variants...)
	for i := range slow.Variants {
		slow.Variants[i].Seconds *= 1e6
		slow.Variants[i].AccessesPerSec /= 1e6
	}
	slowRecord := filepath.Join(t.TempDir(), "slow.json")
	raw, err := json.Marshal(&slow)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(slowRecord, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-replay", "-quick", "-replay-passes", "1", "-replay-baseline", slowRecord}, &out, &errBuf); err != nil {
		t.Fatalf("gate against own record failed: %v", err)
	}
	if !strings.Contains(out.String(), "within") {
		t.Errorf("gate pass not reported:\n%s", out.String())
	}

	// An unreachable committed figure must fail the gate and leave the
	// inflated record untouched (gate-before-overwrite).
	bench.Variants[0].AccessesPerSec *= 1e6
	raw, err = json.Marshal(bench)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(record, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-replay", "-quick", "-replay-passes", "1",
		"-replay-baseline", record, "-replay-json", record}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("gate against inflated record = %v, want a regression error", err)
	}
	after, err := readReplayBench(record)
	if err != nil {
		t.Fatal(err)
	}
	if after.Variants[0].AccessesPerSec != bench.Variants[0].AccessesPerSec {
		t.Error("failed gate still overwrote the -replay-json record")
	}
}
