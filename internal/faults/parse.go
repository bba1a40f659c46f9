package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSpec decodes a fault-injection flag value into per-class configs.
//
// Grammar: semicolon-separated blocks, each an optional "class:" scope
// followed by comma-separated key=value pairs:
//
//	fail=0.05,stall=0.02,stallx=5,die=0.001,panic=0.001,seed=42
//	high:fail=0.1,die=0.01;mid:fail=0.02
//	gpu only: high:die=1,proc=gpu,max=1
//
// An unscoped block applies to every device class (key ""). Keys:
//
//	seed   PRNG seed (integer)
//	fail   per-kernel transient failure probability
//	stall  per-kernel stall probability
//	stallx stall duration multiplier (in [1, 1000])
//	die    per-kernel permanent processor-death probability
//	panic  per-kernel panic probability
//	proc   restrict injection to one processor class (cpu|gpu|npu)
//	max    fault budget: stop injecting after this many faults (0 = ∞)
//
// Every malformed spec — unknown keys, bad numbers, out-of-range rates,
// duplicate classes — returns an error, never a panic (FuzzFaultConfig
// holds it to that). An empty spec returns an empty, non-nil map.
func ParseSpec(spec string) (map[string]Config, error) {
	return parseScoped(spec, "faults: duplicate spec for class", func(block string) (string, Config, error) {
		class := ""
		if head, rest, ok := strings.Cut(block, ":"); ok {
			class = strings.TrimSpace(head)
			if class == "" {
				return "", Config{}, fmt.Errorf("faults: empty class scope in %q", block)
			}
			block = rest
		}
		cfg, err := parseFields(block, deviceKeys)
		if err == nil {
			err = cfg.Validate()
		}
		if err != nil {
			return "", cfg, fmt.Errorf("faults: class %s: %w", scopeLabel(class), err)
		}
		return class, cfg, nil
	})
}

// deviceKeys is the -faults key table.
var deviceKeys = map[string]func(*Config, SpecField) error{
	"seed":   func(c *Config, f SpecField) error { return f.integer(&c.Seed) },
	"max":    func(c *Config, f SpecField) error { return f.budget(&c.MaxFaults) },
	"fail":   func(c *Config, f SpecField) error { return f.float(&c.FailRate) },
	"stall":  func(c *Config, f SpecField) error { return f.float(&c.StallRate) },
	"stallx": func(c *Config, f SpecField) error { return f.float(&c.StallFactor) },
	"die":    func(c *Config, f SpecField) error { return f.float(&c.DieRate) },
	"panic":  func(c *Config, f SpecField) error { return f.float(&c.PanicRate) },
	"proc":   func(c *Config, f SpecField) error { c.Proc = strings.ToLower(f.Val); return nil },
}

// ParseNetSpec decodes a network-fault flag value into per-target configs.
//
// Grammar: semicolon-separated blocks of comma-separated key=value
// pairs. A block with a target=host:port pair scopes to that backend;
// a block without one is the default path for every untargeted backend:
//
//	drop=0.02,reset=0.01,seed=42
//	target=127.0.0.1:8081,lat=1,latms=250;target=127.0.0.1:8082,corrupt=0.5
//	dialto=0.05,hangms=500,max=20
//
// Keys:
//
//	seed    PRNG seed (integer)
//	lat     per-request added-latency probability
//	latms   injected latency in milliseconds (default 200)
//	dialto  per-request dial black-hole probability
//	hangms  how long a black-holed dial blocks, in ms (default 1000)
//	reset   per-request connection-reset probability
//	drop    per-request response-drop probability
//	trunc   per-request body-truncation probability
//	corrupt per-request body bit-flip probability
//	target  scope the block to one backend (host:port)
//	max     fault budget: stop injecting after this many faults (0 = ∞)
//
// Every malformed spec — unknown keys, bad numbers, out-of-range rates,
// duplicate targets — returns an error, never a panic (FuzzNetFaultConfig
// holds it to that). An empty spec returns an empty, non-nil map.
func ParseNetSpec(spec string) (map[string]NetConfig, error) {
	return parseScoped(spec, "netfaults: duplicate spec for target", func(block string) (string, NetConfig, error) {
		cfg, err := parseFields(block, netKeys)
		if err != nil {
			return "", cfg, fmt.Errorf("netfaults: %w", err)
		}
		return cfg.Target, cfg, cfg.Validate()
	})
}

// netKeys is the -net-faults key table.
var netKeys = map[string]func(*NetConfig, SpecField) error{
	"seed":    func(c *NetConfig, f SpecField) error { return f.integer(&c.Seed) },
	"max":     func(c *NetConfig, f SpecField) error { return f.budget(&c.MaxFaults) },
	"lat":     func(c *NetConfig, f SpecField) error { return f.float(&c.LatencyRate) },
	"latms":   func(c *NetConfig, f SpecField) error { return f.millis(&c.Latency) },
	"dialto":  func(c *NetConfig, f SpecField) error { return f.float(&c.DialTimeoutRate) },
	"hangms":  func(c *NetConfig, f SpecField) error { return f.millis(&c.DialHang) },
	"reset":   func(c *NetConfig, f SpecField) error { return f.float(&c.ResetRate) },
	"drop":    func(c *NetConfig, f SpecField) error { return f.float(&c.DropRate) },
	"trunc":   func(c *NetConfig, f SpecField) error { return f.float(&c.TruncateRate) },
	"corrupt": func(c *NetConfig, f SpecField) error { return f.float(&c.CorruptRate) },
	"target": func(c *NetConfig, f SpecField) error {
		// Accept a bare host:port or a full backend URL.
		val := strings.TrimPrefix(f.Val, "http://")
		val = strings.TrimPrefix(val, "https://")
		if c.Target = strings.TrimSuffix(val, "/"); c.Target == "" {
			return fmt.Errorf("empty target")
		}
		return nil
	},
}

// parseScoped is the block loop both fault grammars share: each
// ';'-separated, non-blank block parses into one config and the scope it
// names (a device class, a backend target; "" for all), and a scope
// given twice is an error.
func parseScoped[C any](spec, dupErr string, parse func(block string) (string, C, error)) (map[string]C, error) {
	out := make(map[string]C)
	for _, block := range strings.Split(spec, ";") {
		if block = strings.TrimSpace(block); block == "" {
			continue
		}
		scope, cfg, err := parse(block)
		if err != nil {
			return nil, err
		}
		if _, dup := out[scope]; dup {
			return nil, fmt.Errorf("%s %s", dupErr, scopeLabel(scope))
		}
		out[scope] = cfg
	}
	return out, nil
}

func scopeLabel(scope string) string {
	if scope == "" {
		return "(all)"
	}
	return fmt.Sprintf("%q", scope)
}

// parseFields tokenizes one block and hands each field to its key's
// setter in keys: an unknown key, or a key given twice, is an error.
func parseFields[C any](block string, keys map[string]func(*C, SpecField) error) (C, error) {
	var cfg C
	fields, err := SpecFields(block)
	if err != nil {
		return cfg, err
	}
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		set, ok := keys[f.Key]
		if !ok {
			return cfg, fmt.Errorf("unknown key %q", f.Key)
		}
		if seen[f.Key] {
			return cfg, fmt.Errorf("duplicate key %q", f.Key)
		}
		seen[f.Key] = true
		if err := set(&cfg, f); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// SpecField is one key=value pair of a spec block, both sides trimmed.
type SpecField struct{ Key, Val string }

// SpecFields splits a block on ',' into key=value fields, skipping blank
// ones. A field without '=' is an error; repeated keys are returned as
// given, in order. The fault grammars and the server's overload spec
// share it.
func SpecFields(block string) ([]SpecField, error) {
	var out []SpecField
	for _, pair := range strings.Split(block, ",") {
		if pair = strings.TrimSpace(pair); pair == "" {
			continue
		}
		key, val, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("want key=value, got %q", pair)
		}
		out = append(out, SpecField{strings.TrimSpace(key), strings.TrimSpace(val)})
	}
	return out, nil
}

// bad is the error for a value its key cannot take.
func (f SpecField) bad() error { return fmt.Errorf("bad %s %q", f.Key, f.Val) }

// integer parses a whole number: a seed takes any int64.
func (f SpecField) integer(p *int64) error {
	n, err := strconv.ParseInt(f.Val, 10, 64)
	if err != nil {
		return f.bad()
	}
	*p = n
	return nil
}

// budget parses a fault budget in [0, 2³¹].
func (f SpecField) budget(p *int) error {
	var n int64
	if err := f.integer(&n); err != nil {
		return err
	}
	if n < 0 || n > 1<<31 {
		return fmt.Errorf("fault budget %d out of range", n)
	}
	*p = int(n)
	return nil
}

// float parses a rate or factor; the config's Validate checks its range.
func (f SpecField) float(p *float64) error {
	v, err := strconv.ParseFloat(f.Val, 64)
	if err != nil {
		return f.bad()
	}
	*p = v
	return nil
}

// millis parses a duration in milliseconds, in [0, 1h].
func (f SpecField) millis(p *time.Duration) error {
	var ms float64
	if f.float(&ms) != nil || !(ms >= 0 && ms <= 3.6e6) { // NaN fails both
		return f.bad()
	}
	*p = time.Duration(ms * float64(time.Millisecond))
	return nil
}
