package faults

import (
	"fmt"
	"strconv"
	"strings"
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
//	stallx stall duration multiplier (≥ 1)
//	die    per-kernel permanent processor-death probability
//	panic  per-kernel panic probability
//	proc   restrict injection to one processor class (cpu|gpu|npu)
//	max    fault budget: stop injecting after this many faults (0 = ∞)
//
// Every malformed spec — unknown keys, bad numbers, out-of-range rates,
// duplicate classes — returns an error, never a panic (FuzzFaultConfig
// holds it to that). An empty spec returns an empty, non-nil map.
func ParseSpec(spec string) (map[string]Config, error) {
	out := make(map[string]Config)
	for _, block := range SpecBlocks(spec) {
		class := ""
		if head, rest, ok := strings.Cut(block, ":"); ok {
			class = strings.TrimSpace(head)
			if class == "" {
				return nil, fmt.Errorf("faults: empty class scope in %q", block)
			}
			block = rest
		}
		if _, dup := out[class]; dup {
			return nil, fmt.Errorf("faults: duplicate spec for class %q", classLabel(class))
		}
		cfg, err := parseBlock(block)
		if err != nil {
			return nil, fmt.Errorf("faults: class %s: %w", classLabel(class), err)
		}
		out[class] = cfg
	}
	return out, nil
}

func classLabel(class string) string {
	if class == "" {
		return "(all)"
	}
	return fmt.Sprintf("%q", class)
}

func parseBlock(block string) (Config, error) {
	b, err := ParseSpecBlock(block)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{Seed: b.Seed, MaxFaults: b.Max}
	for _, f := range b.Fields {
		switch f.Key {
		case "fail", "stall", "stallx", "die", "panic":
			v, err := strconv.ParseFloat(f.Val, 64)
			if err != nil {
				return cfg, fmt.Errorf("bad %s %q", f.Key, f.Val)
			}
			switch f.Key {
			case "fail":
				cfg.FailRate = v
			case "stall":
				cfg.StallRate = v
			case "stallx":
				cfg.StallFactor = v
			case "die":
				cfg.DieRate = v
			case "panic":
				cfg.PanicRate = v
			}
		case "proc":
			cfg.Proc = strings.ToLower(f.Val)
		default:
			return cfg, fmt.Errorf("unknown key %q", f.Key)
		}
	}
	return cfg, cfg.Validate()
}

// The keyed-spec tokenizer below is shared by this package's ParseSpec,
// netfaults.ParseSpec and the server's overload spec.

// SpecBlocks splits a spec on ';' into its blocks, trimmed, skipping
// blank ones.
func SpecBlocks(spec string) []string {
	var out []string
	for _, block := range strings.Split(spec, ";") {
		if block = strings.TrimSpace(block); block != "" {
			out = append(out, block)
		}
	}
	return out
}

// SpecField is one key=value pair of a spec block, both sides trimmed.
type SpecField struct{ Key, Val string }

// SpecFields splits a block on ',' into key=value fields, skipping blank
// ones. A field without '=' is an error; repeated keys are returned as
// given, in order.
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

// SpecBlock is one block of a fault spec: the seed and fault budget the
// fault grammars share, and the block's other fields in order.
type SpecBlock struct {
	Seed   int64
	Max    int // fault budget (0 = unbounded)
	Fields []SpecField
}

// ParseSpecBlock tokenizes one fault-spec block: a key given twice is an
// error, seed takes any int64 and max a budget in [0, 2³¹].
func ParseSpecBlock(block string) (SpecBlock, error) {
	var b SpecBlock
	fields, err := SpecFields(block)
	if err != nil {
		return b, err
	}
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		if seen[f.Key] {
			return b, fmt.Errorf("duplicate key %q", f.Key)
		}
		seen[f.Key] = true
		if f.Key != "seed" && f.Key != "max" {
			b.Fields = append(b.Fields, f)
			continue
		}
		n, err := strconv.ParseInt(f.Val, 10, 64)
		if err != nil {
			return b, fmt.Errorf("bad %s %q", f.Key, f.Val)
		}
		switch {
		case f.Key == "seed":
			b.Seed = n
		case n < 0 || n > 1<<31:
			return b, fmt.Errorf("fault budget %d out of range", n)
		default:
			b.Max = int(n)
		}
	}
	return b, nil
}
