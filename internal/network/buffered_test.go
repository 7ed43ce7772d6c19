package network

import (
	"math"
	"testing"

	"cfm/internal/sim"
)

func runBuffered(t *testing.T, cfg BufferedConfig, slots int64) *BufferedOmega {
	t.Helper()
	b := NewBufferedOmega(cfg)
	clk := sim.NewClock()
	clk.Register(b)
	clk.Run(slots)
	return b
}

func TestBufferedConfigValidate(t *testing.T) {
	good := BufferedConfig{Terminals: 16, QueueCap: 4, ServiceTime: 2, Rate: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bads := []BufferedConfig{
		{Terminals: 6, QueueCap: 1, ServiceTime: 1},
		{Terminals: 8, QueueCap: 0, ServiceTime: 1},
		{Terminals: 8, QueueCap: 1, ServiceTime: 0},
		{Terminals: 8, QueueCap: 1, ServiceTime: 1, Rate: 2},
		{Terminals: 8, QueueCap: 1, ServiceTime: 1, HotFraction: -0.1},
		{Terminals: 8, QueueCap: 1, ServiceTime: 1, HotModule: 8},
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.1} {
		bads = append(bads,
			BufferedConfig{Terminals: 8, QueueCap: 1, ServiceTime: 1, Rate: v},
			BufferedConfig{Terminals: 8, QueueCap: 1, ServiceTime: 1, HotFraction: v})
	}
	for i, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
	for _, v := range []float64{0, 1} {
		good.Rate, good.HotFraction = v, v
		if err := good.Validate(); err != nil {
			t.Errorf("Rate = HotFraction = %v rejected: %v", v, err)
		}
	}
}

func TestBufferedDeliversAllTraffic(t *testing.T) {
	b := runBuffered(t, BufferedConfig{
		Terminals: 8, QueueCap: 4, ServiceTime: 1, Rate: 0.05, Seed: 1,
	}, 20000)
	delivered := b.DeliveredBg + b.DeliveredHot
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	inFlight := int64(b.QueuedPackets() + b.SourceBacklog())
	if delivered+inFlight != b.Injected {
		t.Fatalf("conservation broken: injected %d, delivered %d, in flight %d",
			b.Injected, delivered, inFlight)
	}
}

func TestBufferedLowLoadLatencyNearMinimum(t *testing.T) {
	// At very light uniform load, latency ≈ columns + service time.
	b := runBuffered(t, BufferedConfig{
		Terminals: 16, QueueCap: 8, ServiceTime: 1, Rate: 0.005, Seed: 2,
	}, 50000)
	minLat := float64(4 + 1) // 4 columns + 1 service
	got := b.MeanLatencyBg()
	if got < minLat {
		t.Fatalf("latency %v below physical minimum %v", got, minLat)
	}
	if got > 2*minLat {
		t.Fatalf("light-load latency %v far above minimum %v", got, minLat)
	}
}

// TestBufferedTreeSaturation is the Fig. 2.1 phenomenon: adding hot-spot
// traffic to a buffered MIN massively inflates the latency of BACKGROUND
// packets (those not going to the hot module), because the saturation
// tree rooted at the hot sink blocks unrelated traffic.
func TestBufferedTreeSaturation(t *testing.T) {
	base := BufferedConfig{
		Terminals: 16, QueueCap: 4, ServiceTime: 2, Rate: 0.1, Seed: 3,
	}
	cold := runBuffered(t, base, 30000)

	hot := base
	hot.HotFraction = 0.3
	hotRun := runBuffered(t, hot, 30000)

	coldLat, hotLat := cold.MeanLatencyBg(), hotRun.MeanLatencyBg()
	if hotLat < 2*coldLat {
		t.Fatalf("background latency with hot spot %v, without %v: no saturation effect", hotLat, coldLat)
	}
	// The saturation tree should reach back from the last column: full
	// queues in more than one column.
	full := hotRun.FullQueues()
	cols := 0
	for _, f := range full {
		if f > 0 {
			cols++
		}
	}
	if cols < 2 {
		t.Fatalf("full queues per column %v: saturation did not spread as a tree", full)
	}
}

func TestBufferedSaturationGrowsWithHotFraction(t *testing.T) {
	base := BufferedConfig{
		Terminals: 16, QueueCap: 4, ServiceTime: 2, Rate: 0.1, Seed: 4,
	}
	var prev float64
	for _, h := range []float64{0, 0.15, 0.4} {
		cfg := base
		cfg.HotFraction = h
		lat := runBuffered(t, cfg, 30000).MeanLatencyBg()
		if lat < prev {
			t.Fatalf("background latency decreased from %v to %v as hot fraction rose to %v", prev, lat, h)
		}
		prev = lat
	}
}

func TestBufferedZeroRate(t *testing.T) {
	b := runBuffered(t, BufferedConfig{
		Terminals: 8, QueueCap: 2, ServiceTime: 1, Rate: 0, Seed: 5,
	}, 1000)
	if b.Injected != 0 || b.QueuedPackets() != 0 {
		t.Fatal("traffic appeared at rate 0")
	}
	if b.MeanLatencyBg() != 0 || b.MeanLatencyHot() != 0 {
		t.Fatal("latency nonzero with no deliveries")
	}
}

func TestBufferedDeterministicBySeed(t *testing.T) {
	cfg := BufferedConfig{Terminals: 8, QueueCap: 2, ServiceTime: 2, Rate: 0.1, HotFraction: 0.2, Seed: 7}
	a := runBuffered(t, cfg, 10000)
	b := runBuffered(t, cfg, 10000)
	if a.Injected != b.Injected || a.DeliveredBg != b.DeliveredBg ||
		a.LatencyBgTotal != b.LatencyBgTotal || a.DeliveredHot != b.DeliveredHot {
		t.Fatal("same seed produced different results")
	}
}

func TestBufferedQueueCapacityRespected(t *testing.T) {
	b := NewBufferedOmega(BufferedConfig{
		Terminals: 8, QueueCap: 2, ServiceTime: 50, Rate: 0.5, HotFraction: 1, Seed: 8,
	})
	clk := sim.NewClock()
	clk.Register(b)
	clk.Run(2000)
	for j := 0; j < b.o.Columns(); j++ {
		for pos := 0; pos < b.cfg.Terminals; pos++ {
			if n := b.colQ(j, pos).Len(); n > 2 {
				t.Fatalf("queue [%d][%d] holds %d > capacity 2", j, pos, n)
			}
		}
	}
}

func TestBufferedPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	NewBufferedOmega(BufferedConfig{})
}

func TestBufferedHotLatencyAccounting(t *testing.T) {
	b := runBuffered(t, BufferedConfig{
		Terminals: 8, QueueCap: 4, ServiceTime: 1, Rate: 0.05, HotFraction: 0.5, Seed: 9,
	}, 20000)
	if b.DeliveredHot == 0 {
		t.Fatal("no hot traffic delivered")
	}
	if b.MeanLatencyHot() <= 0 {
		t.Fatal("hot latency not accounted")
	}
}
