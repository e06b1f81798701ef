package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"

	"repro/internal/obs"
)

// fingerprint identifies the machine a record was measured on.
// Absolute figures are comparable only between records whose
// fingerprints match; ratios travel between machines.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func machine() fingerprint {
	return fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// annotate attaches the fingerprint to a span, so every trace of a
// span file says what machine it was recorded on.
func (f fingerprint) annotate(sp *obs.Span) {
	sp.Annotate("cpu", f.CPU).AnnotateInt("nproc", int64(f.NumCPU)).
		AnnotateInt("gomaxprocs", int64(f.GOMAXPROCS)).Annotate("go", f.GoVersion).
		Annotate("goos", f.GOOS).Annotate("goarch", f.GOARCH)
}

// cpuModel reads the CPU model name the kernel reports, or "unknown"
// where /proc/cpuinfo is absent or has no model line.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
