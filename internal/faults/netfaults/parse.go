package netfaults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mulayer/internal/faults"
)

// ParseSpec decodes a network-fault flag value into per-target configs.
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
func ParseSpec(spec string) (map[string]Config, error) {
	out := make(map[string]Config)
	for _, block := range faults.SpecBlocks(spec) {
		cfg, err := parseBlock(block)
		if err != nil {
			return nil, err
		}
		if _, dup := out[cfg.Target]; dup {
			return nil, fmt.Errorf("netfaults: duplicate spec for target %s", targetLabel(cfg.Target))
		}
		out[cfg.Target] = cfg
	}
	return out, nil
}

func targetLabel(target string) string {
	if target == "" {
		return "(all)"
	}
	return fmt.Sprintf("%q", target)
}

func parseBlock(block string) (Config, error) {
	b, err := faults.ParseSpecBlock(block)
	if err != nil {
		return Config{}, fmt.Errorf("netfaults: %w", err)
	}
	cfg := Config{Seed: b.Seed, MaxFaults: b.Max}
	for _, f := range b.Fields {
		key, val := f.Key, f.Val
		switch key {
		case "latms", "hangms":
			ms, err := strconv.ParseFloat(val, 64)
			if err != nil || ms < 0 || ms > 3.6e6 {
				return cfg, fmt.Errorf("netfaults: bad %s %q", key, val)
			}
			d := time.Duration(ms * float64(time.Millisecond))
			if key == "latms" {
				cfg.Latency = d
			} else {
				cfg.DialHang = d
			}
		case "lat", "dialto", "reset", "drop", "trunc", "corrupt":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return cfg, fmt.Errorf("netfaults: bad %s %q", key, val)
			}
			switch key {
			case "lat":
				cfg.LatencyRate = v
			case "dialto":
				cfg.DialTimeoutRate = v
			case "reset":
				cfg.ResetRate = v
			case "drop":
				cfg.DropRate = v
			case "trunc":
				cfg.TruncateRate = v
			case "corrupt":
				cfg.CorruptRate = v
			}
		case "target":
			// Accept a bare host:port or a full backend URL.
			val = strings.TrimPrefix(val, "http://")
			val = strings.TrimPrefix(val, "https://")
			val = strings.TrimSuffix(val, "/")
			if val == "" {
				return cfg, fmt.Errorf("netfaults: empty target")
			}
			cfg.Target = val
		default:
			return cfg, fmt.Errorf("netfaults: unknown key %q", key)
		}
	}
	return cfg, cfg.Validate()
}
