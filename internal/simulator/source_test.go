package simulator

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/scenario"
)

// elasticTimeline is a small planned schedule with same-time events, the
// case where a wake's batch of events could apply differently from one
// event at a time.
func elasticTimeline() []scenario.CapacityEvent {
	return []scenario.CapacityEvent{
		{Time: 60, Kind: scenario.CapacityLeave, Pick: 0.999},
		{Time: 60, Kind: scenario.CapacityLeave, Pick: 0.5},
		{Time: 300, Kind: scenario.CapacityJoin, Servers: 2},
		{Time: 500, Kind: scenario.CapacityFail, Pick: 0.1},
		{Time: 900, Kind: scenario.CapacityJoin, Servers: 1, Restocks: scenario.CapacityFail},
	}
}

// elasticDigest is the sha256 of the marshaled Result of the elastic
// timeline run below, recorded when planned timelines still replayed on a
// separate precomputed event path. It is the fixed reference every source
// path must reproduce. Recorded on amd64.
const elasticDigest = "b6067f30b865acb775fb0ab82c50360b1a6d6c0f57ff275a97c6284036aa1f73"

// resultDigest returns the hex sha256 of the marshaled Result.
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// The two ways of feeding the same timeline — a bare TimelineSource, and
// one composed with a second (empty) source — must yield identical
// Results, and both must match the recorded digest, or planned-scenario
// physics changed.
func TestSourcePathsEquivalent(t *testing.T) {
	run := func(mutate func(*Config)) *Result {
		cfg := smallConfig(t, 10)
		cfg.MinServers = 1
		mutate(&cfg)
		res, err := Run(cfg, &fifoTest{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	viaSource := run(func(c *Config) { c.Source = scenario.NewTimelineSource(elasticTimeline()) })
	viaMulti := run(func(c *Config) {
		c.Source = scenario.Sources(
			scenario.NewTimelineSource(elasticTimeline()),
			scenario.NewTimelineSource(nil), // forces the composed source
		)
	})
	if viaSource.CapacityEvents == 0 || viaSource.Evictions == 0 {
		t.Fatalf("timeline had no effect (events=%d evictions=%d) — equivalence would be vacuous",
			viaSource.CapacityEvents, viaSource.Evictions)
	}
	if runtime.GOARCH == "amd64" {
		for name, res := range map[string]*Result{"bare": viaSource, "composed": viaMulti} {
			if got := resultDigest(t, res); got != elasticDigest {
				t.Errorf("%s TimelineSource Result sha256 %s, want recorded %s", name, got, elasticDigest)
			}
		}
	}
	if !reflect.DeepEqual(viaSource, viaMulti) {
		t.Errorf("composed source diverged from bare TimelineSource:\n%+v\nvs\n%+v", viaMulti, viaSource)
	}
	if viaMulti.ScaleUps != 0 || viaMulti.ScaleDowns != 0 || viaMulti.AutoscaleEvents != 0 {
		t.Errorf("timeline events counted as autoscaler activity: %+v", viaMulti)
	}
}

func TestDrainMTBFSourceEndToEnd(t *testing.T) {
	spec := scenario.CapacitySpec{DrainMTBF: 150, DrainRestock: 200, MinServers: 1}
	run := func() *Result {
		cfg := mixedConfig(t, 10)
		cfg.MinServers = spec.MinServers
		cfg.Source = scenario.NewDrainMTBFSource(spec, 11, cfg.MaxTime)
		res, err := Run(cfg, &fifoTest{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.CapacityEvents == 0 {
		t.Fatal("stochastic drain process produced no topology changes")
	}
	if res.RackDrainEvictions == 0 {
		t.Error("drains over a busy multi-rack cluster evicted nothing")
	}
	if res.ScaleUps != 0 || res.ScaleDowns != 0 {
		t.Errorf("chaos drains counted as autoscaler activity: %+v", res)
	}
	if again := run(); !reflect.DeepEqual(res, again) {
		t.Error("same (spec, seed) drain run is not deterministic")
	}
}
