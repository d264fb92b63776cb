package scenario

import (
	"errors"
	"testing"

	"repro/internal/obj"
)

// TestMemorySweep builds the baseline scenario, 500 sessions at seed 42, in
// every memory size from 1 KiB to 125 KiB in 4 KiB steps. The range
// crosses every point where construction is refused: booting the kernel,
// the server side, the session population and the anchor blocks. Each
// constructor must refuse or build at every size, never panic, and the
// split between the two is pinned. A refusal is typed: its error unwraps
// to the *obj.Fault that refused.
func TestMemorySweep(t *testing.T) {
	baseline := func(mem uint32, swapping bool) Config {
		cfg, err := Preset("baseline", 500, 42)
		if err != nil {
			t.Fatal(err)
		}
		cfg.MemoryBytes, cfg.Swapping = mem, swapping
		return cfg
	}
	for _, c := range []struct {
		name            string
		build           func(mem uint32) error
		refused, builds int
	}{
		{"New", func(mem uint32) error {
			_, err := New(baseline(mem, false))
			return err
		}, 17, 15},
		{"New swapping", func(mem uint32) error {
			_, err := New(baseline(mem, true))
			return err
		}, 9, 23},
		{"NewShard", func(mem uint32) error {
			_, err := NewShard(ShardConfig{Load: baseline(mem, false).Load})
			return err
		}, 12, 20},
	} {
		refused, builds := 0, 0
		for mem := uint32(1 << 10); mem <= 128<<10; mem += 4 << 10 {
			var f *obj.Fault
			if err := c.build(mem); err != nil {
				refused++
				if !errors.As(err, &f) {
					t.Errorf("%s at %d bytes: %v does not unwrap to an *obj.Fault", c.name, mem, err)
				}
			} else {
				builds++
			}
		}
		if refused != c.refused || builds != c.builds {
			t.Errorf("%s: %d sizes refused and %d built, want %d and %d", c.name, refused, builds, c.refused, c.builds)
		}
	}
}
