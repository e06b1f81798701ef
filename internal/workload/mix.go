package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/trace"
)

// MixConfig parameterizes the synthetic sweep generator used by the
// read/write-mix and bit-density experiments (E6): it produces a stream
// with a controlled read fraction and controlled data one-density over a
// hot/cold footprint.
type MixConfig struct {
	// ReadFraction in [0,1] is the probability an access is a read.
	ReadFraction float64
	// OneDensity in [0,1] is the probability each data bit is '1', for
	// both the initial image and write payloads.
	OneDensity float64
	// Accesses is the stream length.
	Accesses int
	// FootprintBytes is the addressed region size (rounded up to 8).
	FootprintBytes int
	// HotFraction of accesses target the hot tenth of the footprint
	// (an 80/20-style locality knob). Zero disables skew.
	HotFraction float64
}

// Validate checks the configuration.
func (c *MixConfig) Validate() error {
	switch {
	case c.ReadFraction < 0 || c.ReadFraction > 1:
		return fmt.Errorf("workload: read fraction %g out of [0,1]", c.ReadFraction)
	case c.OneDensity < 0 || c.OneDensity > 1:
		return fmt.Errorf("workload: one density %g out of [0,1]", c.OneDensity)
	case c.Accesses <= 0:
		return fmt.Errorf("workload: accesses must be positive, got %d", c.Accesses)
	case c.FootprintBytes < 64:
		return fmt.Errorf("workload: footprint %d too small", c.FootprintBytes)
	case c.HotFraction < 0 || c.HotFraction > 1:
		return fmt.Errorf("workload: hot fraction %g out of [0,1]", c.HotFraction)
	}
	return nil
}

// Mix materializes a synthetic instance for the configuration.
func Mix(cfg MixConfig, seed int64) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	words := (cfg.FootprintBytes + 7) / 8
	footprint := uint64(words * 8)

	init := Region{Addr: baseA, Data: make([]byte, 0, words*8)}
	for i := 0; i < words; i++ {
		init.Data = append(init.Data, densityWord(rng, cfg.OneDensity)...)
	}

	hotBytes := footprint / 10
	if hotBytes < 64 {
		hotBytes = 64
	}
	pick := func() uint64 {
		region := footprint
		base := uint64(0)
		if cfg.HotFraction > 0 && rng.Float64() < cfg.HotFraction {
			region = hotBytes
		} else if cfg.HotFraction > 0 {
			base = hotBytes
			region = footprint - hotBytes
		}
		return baseA + base + uint64(rng.Int63n(int64(region/8)))*8
	}

	name := fmt.Sprintf("mix-r%02.0f-d%02.0f", cfg.ReadFraction*100, cfg.OneDensity*100)
	inst := &Instance{Name: name, Init: []Region{init}, Accesses: make([]trace.Access, 0, cfg.Accesses)}
	for i := 0; i < cfg.Accesses; i++ {
		addr := pick()
		if rng.Float64() < cfg.ReadFraction {
			inst.Accesses = append(inst.Accesses, trace.Access{Op: trace.Read, Addr: addr, Size: 8})
		} else {
			inst.Accesses = append(inst.Accesses, trace.Access{
				Op: trace.Write, Addr: addr, Size: 8, Data: densityWord(rng, cfg.OneDensity),
			})
		}
	}
	return inst, nil
}
