package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// TestConfigBoundary: a caller's configuration is the boundary where a
// scenario can be refused for what it asks, not for memory. Each row is one
// refusal, an error that names what is wrong, or one default the engine
// fills in.
func TestConfigBoundary(t *testing.T) {
	build := func(mutate func(*Config)) func() error {
		return func() error {
			cfg, err := Preset("baseline", 50, 1)
			if err != nil {
				return err
			}
			mutate(&cfg)
			_, err = New(cfg)
			return err
		}
	}
	shard := func(mutate func(*ShardConfig)) func() error {
		return func() error {
			cfg := shardTestConfig(2, 50)
			mutate(&cfg)
			_, err := NewShard(cfg)
			return err
		}
	}
	for _, c := range []struct {
		name string
		err  func() error
		want string // a part of the refusal; "" for none
	}{
		{"no sessions", build(func(c *Config) { c.Sessions = 0 }), "Sessions must be positive"},
		{"no classes", build(func(c *Config) { c.Classes = nil }), "at least one class required"},
		{"class without servers", build(func(c *Config) { c.Classes[1].Servers = 0 }),
			`class "batch" needs positive Weight and Servers`},
		{"touches past the session", build(func(c *Config) { c.SessionData = 12 }),
			`class "batch" touches 4 dwords but sessions are 12 bytes`},
		{"unknown preset", func() error {
			_, err := Preset("nope", 50, 1)
			return err
		}, `unknown preset "nope"`},
		{"unknown policy", build(func(c *Config) { c.Policy = "nope" }), `unknown policy "nope"`},
		{"shard without sessions", shard(func(c *ShardConfig) { c.Sessions = 0 }), "Sessions must be positive"},
		{"negative nodes", shard(func(c *ShardConfig) { c.Nodes = -1 }), "Nodes must be positive"},
		{"migration below 0", shard(func(c *ShardConfig) { c.MigratePermille = -1 }), "MigratePermille -1 outside [0,1000]"},
		{"migration past 1000", shard(func(c *ShardConfig) { c.MigratePermille = 1001 }), "MigratePermille 1001 outside [0,1000]"},
		{"no nodes builds two", func() error {
			cfg := shardTestConfig(0, 50)
			e, err := NewShard(cfg)
			if err == nil && len(e.nodes) != 2 {
				err = fmt.Errorf("%d nodes built", len(e.nodes))
			}
			return err
		}, ""},
		{"engine run twice", func() error {
			cfg, err := Preset("baseline", 50, 1)
			if err != nil {
				return err
			}
			e, err := New(cfg)
			if err != nil {
				return err
			}
			if _, err := e.Run(); err != nil {
				return err
			}
			_, err = e.Run()
			return err
		}, "scenario: engine already ran"},
		{"shard run twice", func() error {
			e, err := NewShard(shardTestConfig(2, 50))
			if err != nil {
				return err
			}
			if _, err := e.Run(); err != nil {
				return err
			}
			_, err = e.Run()
			return err
		}, "shard: engine already ran"},
	} {
		err := c.err()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
