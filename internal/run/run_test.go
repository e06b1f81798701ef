package run

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sram"
	"repro/internal/workload"
)

func TestSpecDefaultsResolveAndRun(t *testing.T) {
	rep, err := Spec{Source: Source{Kernel: "hist"}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Variant != "cnt-cache" {
		t.Errorf("default variant label = %q, want the registry name", rep.Variant)
	}
	if rep.Workload != "hist" || rep.Instance == nil {
		t.Errorf("workload = %q, instance = %v", rep.Workload, rep.Instance)
	}
	if rep.DEnergy.Total() <= 0 {
		t.Error("run produced no D-cache energy")
	}
}

func TestSourceValidateExactlyOne(t *testing.T) {
	cases := []Source{
		{}, // none
		{Kernel: "mm", Program: "matmul"},
		{Kernel: "mm", TracePath: "t.bin"},
		{Program: "matmul", Instance: &workload.Instance{}},
	}
	for _, src := range cases {
		err := src.Validate()
		if err == nil || !strings.Contains(err.Error(), "exactly one of") {
			t.Errorf("Source %+v: err = %v, want exactly-one error", src, err)
		}
	}
	if err := (Source{Kernel: "mm"}).Validate(); err != nil {
		t.Errorf("single source rejected: %v", err)
	}
}

func TestResolveErrorsAreEager(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown variant", Spec{Source: Source{Kernel: "mm"}, Variant: "quantum"}, "unknown variant"},
		{"unknown device", Spec{Source: Source{Kernel: "mm"}, Device: "tube-amp"}, "tube-amp"},
		{"unknown kernel", Spec{Source: Source{Kernel: "nope"}}, "nope"},
		{"unknown program", Spec{Source: Source{Program: "nope"}}, "unknown program"},
		{"no source", Spec{}, "exactly one of"},
		{
			"bad predictor",
			func() Spec {
				p := core.DefaultParams()
				p.PolicyName = "psychic"
				return Spec{Source: Source{Kernel: "mm"}, Params: &p}
			}(),
			"psychic",
		},
		{
			"options and variant together",
			func() Spec {
				o := core.BaselineOptions()
				return Spec{Source: Source{Kernel: "mm"}, Variant: "baseline", DOptions: &o}
			}(),
			"mutually exclusive",
		},
		{
			"I options and I variant together",
			func() Spec {
				o := core.BaselineOptions()
				return Spec{Source: Source{Kernel: "mm"}, IVariant: "baseline", IOptions: &o}
			}(),
			"mutually exclusive",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.spec.Resolve()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Resolve err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestConfigureValidatesBeforeLoading pins the eager-validation contract:
// a structurally bad spec fails at Configure, which never touches the
// source, so a bad knob surfaces before any workload is built.
func TestConfigureValidatesBeforeLoading(t *testing.T) {
	p := core.DefaultParams()
	p.Window = 0
	spec := Spec{Source: Source{Kernel: "mm"}, Params: &p}
	if _, err := spec.Configure(); err == nil {
		t.Error("zero window should fail Configure")
	}
}

func TestIOptionsDefaultToDSide(t *testing.T) {
	cfg, err := Spec{Variant: "static-read"}.Configure()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.IOpts.Spec != cfg.DOpts.Spec {
		t.Errorf("unset I side should copy D options: I=%+v D=%+v", cfg.IOpts.Spec, cfg.DOpts.Spec)
	}
	cfg, err = Spec{Variant: "static-read", IVariant: "baseline"}.Configure()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.IOpts.Spec == cfg.DOpts.Spec {
		t.Error("explicit I variant should diverge from the D side")
	}
}

func TestTelemetryAttachesToBothSides(t *testing.T) {
	reg := obs.NewRegistry()
	cfg, err := Spec{Metrics: reg}.Configure()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DOpts.Metrics != reg || cfg.IOpts.Metrics != reg {
		t.Error("metrics registry should attach to both L1s")
	}
}

// TestSnapshotBeforeRun pins the snapshot contract of RunSnapshot: a
// run that never replays (its context is already cancelled) yields no
// snapshot, and a completed run's snapshot carries the end-of-run line
// state next to a report identical to a plain Run's.
func TestSnapshotBeforeRun(t *testing.T) {
	sess, err := Spec{Source: Source{Kernel: "hist"}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, snap, err := sess.RunSnapshot(ctx); err == nil || snap != (core.Snapshot{}) {
		t.Errorf("a run that never replayed should fail with no snapshot: err=%v snap=%+v", err, snap)
	}
	rep, snap, err := sess.RunSnapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if snap.ValidLines == 0 {
		t.Error("post-run snapshot should carry line state")
	}
	plain, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Report, plain.Report) {
		t.Error("RunSnapshot's report differs from Run's")
	}
}

// TestCompareDeterministicAcrossJobs pins the engine determinism
// contract at the session layer: the comparison's reports are identical
// for any worker count.
func TestCompareDeterministicAcrossJobs(t *testing.T) {
	run := func(jobs int) *core.Comparison {
		t.Helper()
		sess, err := Spec{Source: Source{Kernel: "hist"}, Jobs: jobs}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		cmp, err := sess.Compare()
		if err != nil {
			t.Fatal(err)
		}
		return cmp
	}
	serial, parallel := run(1), run(4)
	if len(serial.Names) != len(parallel.Names) {
		t.Fatalf("variant counts differ: %d vs %d", len(serial.Names), len(parallel.Names))
	}
	for i, name := range serial.Names {
		if parallel.Names[i] != name {
			t.Errorf("variant order differs at %d: %s vs %s", i, name, parallel.Names[i])
		}
		s, p := serial.Reports[i], parallel.Reports[i]
		if s.DEnergy != p.DEnergy || s.DSwitches != p.DSwitches {
			t.Errorf("%s: serial and parallel reports differ", name)
		}
	}
	if serial.Names[0] != "baseline" || serial.Names[len(serial.Names)-1] != "cnt-cache" {
		t.Errorf("comparison order = %v", serial.Names)
	}
}

func TestCompareNeedsNamedVariant(t *testing.T) {
	opts := core.DefaultOptions()
	sess, err := Spec{Source: Source{Kernel: "hist"}, DOptions: &opts}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Compare(); err == nil {
		t.Error("Compare with explicit options should fail")
	}
}

// TestExplicitOptionsKeepEngineLabel: the DOptions escape hatch keeps
// the engine's Spec.String() label, since no registry name was involved.
func TestExplicitOptionsKeepEngineLabel(t *testing.T) {
	opts := core.BaselineOptions()
	rep, err := Spec{Source: Source{Kernel: "hist"}, DOptions: &opts}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Variant != opts.Spec.String() {
		t.Errorf("variant label = %q, want engine label %q", rep.Variant, opts.Spec.String())
	}
}

// TestPartialHierarchyIsEagerError pins the fix for the silent-clobber
// bug: a partially-configured hierarchy used to be replaced wholesale
// by the default, so the run reported the spec's geometry but simulated
// another. It must now fail at Resolve, before anything loads.
func TestPartialHierarchyIsEagerError(t *testing.T) {
	var hier cache.HierarchyConfig
	hier.Shared = []cache.Config{{Name: "L2", Geometry: sram.Geometry{Sets: 512, Ways: 8, LineBytes: 64}}}
	_, err := Spec{Source: Source{Kernel: "mm"}, Hierarchy: hier}.Resolve()
	if err == nil || !strings.Contains(err.Error(), "partial hierarchy is not defaulted") {
		t.Fatalf("partial hierarchy resolved: err = %v, want the eager validation error", err)
	}
}

func TestLevelSpecResolution(t *testing.T) {
	// A shared-level device override resolves into the introspected
	// hierarchy; an unset variant stays baseline.
	sess, err := Spec{Source: Source{Kernel: "mm"}, Levels: []LevelSpec{{Device: "cmos-32"}}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	lvls := sess.Levels()
	if len(lvls) != 3 {
		t.Fatalf("resolved %d levels, want 3", len(lvls))
	}
	l2 := lvls[2]
	if l2.Name != "L2" || l2.Device != "cmos-32" || l2.Variant != "baseline" {
		t.Errorf("L2 resolved as %+v, want the cmos-32 baseline", l2)
	}
	if lvls[0].Device != DefaultDevice || lvls[0].Variant != DefaultVariant {
		t.Errorf("L1D resolved as %+v", lvls[0])
	}

	// More level specs than shared levels is a spec error, not a silent
	// truncation.
	_, err = Spec{Source: Source{Kernel: "mm"}, Levels: make([]LevelSpec, 2)}.Resolve()
	if err == nil || !strings.Contains(err.Error(), "level specs for") {
		t.Errorf("oversized Levels: err = %v", err)
	}

	// Options escape hatch is exclusive with the declarative fields.
	opts := core.BaselineOptions()
	_, err = Spec{Source: Source{Kernel: "mm"},
		Levels: []LevelSpec{{Options: &opts, Variant: "cnt-cache"}}}.Resolve()
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("Options+Variant: err = %v", err)
	}
}

// TestCACTIDeviceAutoCalibrates: naming a cacti-* device must fit the
// periphery to its CACTI run — the resolved options carry a calibrated
// Periphery rather than the table-derived default.
func TestCACTIDeviceAutoCalibrates(t *testing.T) {
	sess, err := Spec{Source: Source{Kernel: "mm"}, Device: "cacti-16k-32nm"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	per := sess.SimConfig.DOpts.Periphery
	if per == nil {
		t.Fatal("cacti device resolved without a calibrated periphery")
	}
	want, err := sram.CalibratedPeriphery("cacti-16k-32nm", sess.SimConfig.DOpts.Table)
	if err != nil {
		t.Fatal(err)
	}
	if *per != want {
		t.Errorf("periphery %+v, want the calibrated %+v", *per, want)
	}
}

// raceEnabled is set under -race, whose instrumentation allocates on its
// own account; exact non-zero pins skip there.
var raceEnabled bool

// TestSessionRunAllocs pins a warm Session.Run of a suite kernel, setup
// included: core's TestRunInstanceAllocs count plus the session's report
// wrapper (an untraced run span allocates nothing). Every per-level
// array comes back from the recycler, so any new per-run allocation
// shows up here as an exact count change.
func TestSessionRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	sess, err := Spec{Source: Source{Kernel: "hist"}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err) // warm the recycler
	}
	const want = 59
	if n := testing.AllocsPerRun(5, func() {
		if _, err := sess.Run(); err != nil {
			t.Fatal(err)
		}
	}); n != want {
		t.Errorf("warm Session.Run(hist) allocates %v objects, want exactly %d", n, want)
	}
}
