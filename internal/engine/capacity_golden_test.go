package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/scenario"
)

// capacityGolden pins the sha256 of each capacity cell's marshaled
// Result, event log included. Every non-static registered scenario runs
// under three schedulers on a homogeneous 16-GPU cluster and on a mixed
// three-rack shape, plus one closed-loop autoscaler cell, so any change
// to how capacity events reach the simulator — timing, order, batching
// or accounting — shows up as a hash mismatch.
var capacityGolden = map[string]string{
	"fifo/16gpu/trace0/elastic":                       "2da45a5dc45cb42cd018182cc5a349dbc9e2a4a7225b56faf71b7aea6519d003",
	"fifo/4x4,2x8,2x4/trace0/elastic":                 "99abd2d5cd8d9cffd538c13436c34de9326c58a5f011d83771f98ec9409fea51",
	"tiresias/16gpu/trace0/elastic":                   "cc98bc4817dd1be92c3e718213f364b39542ad0529da09870ab2c72a390a85f4",
	"tiresias/4x4,2x8,2x4/trace0/elastic":             "ab4908b0b94b44a889c10506e9a3b26ddfba98fb15f62a466d26f507a0363fed",
	"ones/16gpu/trace0/elastic":                       "8d927ce16c70af628b06eac945b0ab77d9fad31e2d9735d5911f090408310465",
	"ones/4x4,2x8,2x4/trace0/elastic":                 "899526cf69588ff1121df21a0b37d9398c652dff0b51ec76489a0b90d3a5c1f1",
	"fifo/16gpu/trace0/spot":                          "8a11c7051cb502e3805d87beda06cbca5c76ef8b306fbe63b002f9c37c098e84",
	"fifo/4x4,2x8,2x4/trace0/spot":                    "2742ac6f3c92a5e528385e80c82d71be119d1fe7464f0ca0426f66b5c29df51e",
	"tiresias/16gpu/trace0/spot":                      "9adda3f14f15dc4ddf476cb46ae1a6497acd15832ae6b3d79226b698b205eeb3",
	"tiresias/4x4,2x8,2x4/trace0/spot":                "4b9763ddaa2a2acc7319d36d7439870c4ceb3df00cb1473895a5a93cd422bd67",
	"ones/16gpu/trace0/spot":                          "3a72d713eda5e5b5d42efee3002404b789558299615294cde689e88d34e2ceaf",
	"ones/4x4,2x8,2x4/trace0/spot":                    "81c53be9ecfd80a046f647f59b428ff6a350123db290409dd6af696012a2cfd1",
	"fifo/16gpu/trace0/node-failure":                  "25446c88b2dadf5f46a1f9901766c7651ec7345593ebbb5e704f458b8ebb85d2",
	"fifo/4x4,2x8,2x4/trace0/node-failure":            "1b54c503cf91daff7f0288a3a2990f7d9ad83b738dd9dca5a22de7fee1c9c7c5",
	"tiresias/16gpu/trace0/node-failure":              "3320aba5f00d3a6466fcc8253abf2d3057ad9360e6d419d1c6a428e7e1f7bf6a",
	"tiresias/4x4,2x8,2x4/trace0/node-failure":        "d3899315062170ddcdfdcdb3415ad52f661796f22e18b0ad59b2292c51eb5a3a",
	"ones/16gpu/trace0/node-failure":                  "aa1a140152ce5902b081170d3f95360031a0e80c89aa109b794ba530965ff15e",
	"ones/4x4,2x8,2x4/trace0/node-failure":            "f828cae16faf760c5a496bc9b35e29a58c853805e7b3cc98f95214b531f9b076",
	"fifo/16gpu/trace0/mtbf-drain":                    "125d54ac0a9dea6365d2e5ecaecdd099a848d9f11e2777ebd86038c27a1e7535",
	"fifo/4x4,2x8,2x4/trace0/mtbf-drain":              "3c6864dbbb9077a7f84e21836ca2a1ebd6617013a221f1999981450a7cdf0cb2",
	"tiresias/16gpu/trace0/mtbf-drain":                "cf192ddfa19599482da8ff6ba1f52b966dbe2d61f523e516a728a536790894e8",
	"tiresias/4x4,2x8,2x4/trace0/mtbf-drain":          "ebc7d557b59d45bf001fb04d8a4b72a19f6f5d651780fe6e69f9ddad303475ee",
	"ones/16gpu/trace0/mtbf-drain":                    "e4f439f80292875b86b8aafb653ffaaa13451b2214b0eebbbf12f763a1599a65",
	"ones/4x4,2x8,2x4/trace0/mtbf-drain":              "fd4425448606f14cd94cf8a637d309683153777bcbe36755894c5f724fb7fb91",
	"fifo/16gpu/trace0/rack-drain":                    "8c71c6d72e91a33c0e764be7a7b3f690399d787886b75da849378ef699baa2b8",
	"fifo/4x4,2x8,2x4/trace0/rack-drain":              "53865b2683145bc178d215fa08bcff3af2fefd53d7e873945b26d779719bc6b5",
	"tiresias/16gpu/trace0/rack-drain":                "27b9375a8b510805b4739ef9e2f8fe70814a3973cf6c570e3287d43a98e73c65",
	"tiresias/4x4,2x8,2x4/trace0/rack-drain":          "9a675e4a1f4322e98b83ddabbb19c8a01f604f99668898c06f107073de538fe0",
	"ones/16gpu/trace0/rack-drain":                    "f17c59f401a00a1a19e0a4728fba3d526507bcbdc1f38c396b4006b48637313a",
	"ones/4x4,2x8,2x4/trace0/rack-drain":              "fb67541e0ff052d55bcac68d92d17a9f93a39ccb0eaa33b5116a07725d244779",
	"tiresias/16gpu/trace0/burst/reactive-aggressive": "d9711a20ddab717cf7c4774a48409b681dbddec5a5c7338384a13aa4b8781f23",
}

// capacityGoldenCells lists the cells capacityGolden covers.
func capacityGoldenCells() []Cell {
	var cells []Cell
	for _, scn := range []string{"elastic", "spot", "node-failure", "mtbf-drain", "rack-drain"} {
		for _, s := range []string{"fifo", "tiresias", "ones"} {
			cells = append(cells,
				Cell{Scheduler: s, Capacity: 16, Scenario: scn},
				Cell{Scheduler: s, Shape: "4x4,2x8,2x4", Scenario: scn})
		}
	}
	return append(cells, Cell{Scheduler: "tiresias", Capacity: 16, Scenario: "burst", Autoscaler: "reactive-aggressive"})
}

// The golden cells must cover every registered scenario whose capacity
// changes, so a new capacity scenario cannot slip past the pin.
func TestCapacityGoldenCoversCapacityScenarios(t *testing.T) {
	covered := map[string]bool{}
	for _, c := range capacityGoldenCells() {
		covered[c.Scenario] = true
	}
	for _, name := range scenario.Specs.Names() {
		spec, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if !spec.Capacity.IsStatic() && !covered[name] {
			t.Errorf("capacity scenario %q has no golden cell", name)
		}
	}
}

// TestCapacityGoldenResults recomputes every golden cell and compares
// the Result JSON digest. The digests are taken on amd64: architectures
// that fuse multiply-adds round floats differently and cannot match.
func TestCapacityGoldenResults(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	p := QuickParams()
	p.RecordEvents = true
	cells := capacityGoldenCells()
	results, err := NewRunner(p).Results(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		name := cells[i].String()
		if got, want := hex.EncodeToString(sum[:]), capacityGolden[name]; got != want {
			t.Errorf("%s: Result sha256 %s, want %s (%d capacity events)", name, got, want, res.CapacityEvents)
		}
	}
}
