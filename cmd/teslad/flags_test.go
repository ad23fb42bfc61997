package main

import (
	"strings"
	"testing"
	"time"

	"tesla/internal/control"
	"tesla/internal/fleet"
)

// TestModesHonourOrRejectSharedFlags runs every mode against every shared
// flag: each combination must either reach the configuration the mode runs
// under or fail to parse; a flag accepted and then ignored fails the test.
func TestModesHonourOrRejectSharedFlags(t *testing.T) {
	dir := t.TempDir()
	modes := []struct {
		name string
		args []string
	}{
		{"room", nil},
		{"fleet", []string{"-rooms", "3"}},
		{"scheduler", []string{"-rooms", "3", "-scheduler", "full"}},
		{"coordinator", []string{"-role", "coordinator"}},
		{"shard", []string{"-role", "shard", "-id", "shard-a", "-datadir", t.TempDir()}},
	}
	flags := []struct {
		name     string
		args     []string
		honoured func(o options, cfg fleet.Config) bool
	}{
		{"policy", []string{"-policy", "modelfree"}, func(_ options, cfg fleet.Config) bool {
			p, err := cfg.NewPolicy(0, 1)
			_, ok := p.(*control.ModelFree)
			return err == nil && ok
		}},
		{"datadir", []string{"-datadir", dir}, func(_ options, cfg fleet.Config) bool { return cfg.DataDir == dir }},
		{"inputs", []string{"-inputs", "http=127.0.0.1:0"}, func(o options, _ fleet.Config) bool { return o.inputs == "http=127.0.0.1:0" }},
		{"load", []string{"-load", "high"}, func(_ options, cfg fleet.Config) bool {
			for _, spec := range cfg.Rooms {
				if spec.Profile.Name() != "diurnal-high" {
					return false
				}
			}
			return true
		}},
		{"speedup", []string{"-speedup", "60"}, func(o options, _ fleet.Config) bool { return o.speedup == 60 }},
		{"gateway", []string{"-gateway"}, func(o options, _ fleet.Config) bool { return o.gateway }},
		{"stepdelay", []string{"-stepdelay", "1ms"}, func(o options, _ fleet.Config) bool { return o.stepDelay == time.Millisecond }},
	}
	honours := map[string]string{
		"room":        "policy datadir inputs load speedup",
		"fleet":       "policy datadir load speedup",
		"scheduler":   "policy speedup",
		"coordinator": "policy",
		"shard":       "policy datadir inputs gateway stepdelay",
	}
	for _, m := range modes {
		for _, f := range flags {
			args := append([]string{"-policy", "fixed", "-minutes", "5"}, m.args...)
			o, err := parseFlags(append(args, f.args...))
			want := strings.Contains(" "+honours[m.name]+" ", " "+f.name+" ")
			if !want {
				if err == nil {
					t.Errorf("%s mode accepted -%s, which it ignores", m.name, f.name)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s mode rejected -%s: %v", m.name, f.name, err)
				continue
			}
			if got := o.mode(); got != m.name {
				t.Fatalf("%q selected %s mode, want %s", args, got, m.name)
			}
			cfg, err := fleetConfig(o)
			if err != nil {
				t.Errorf("%s mode -%s: %v", m.name, f.name, err)
				continue
			}
			if !f.honoured(o, cfg) {
				t.Errorf("%s mode accepted -%s but its configuration does not carry it", m.name, f.name)
			}
		}
	}
}

// TestParseFlagsRejectsInconsistentFlags covers the checks that depend on
// more than the mode.
func TestParseFlagsRejectsInconsistentFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-checkpoint", "5"},
		{"-walsync", "8"},
		{"-gatherevery", "2s"},
		{"-role", "bogus"},
		{"-role", "shard", "-datadir", "x"},
		{"-role", "shard", "-id", "shard-a"},
		{"-rooms", "0"},
		{"stray"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}
