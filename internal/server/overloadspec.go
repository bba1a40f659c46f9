package server

import (
	"fmt"
	"strconv"
	"time"

	"mulayer/internal/faults"
)

// ParseOverloadSpec parses an overload-protection spec of the form
//
//	key=value[,key=value...]
//
// with keys:
//
//	admit=on|off       deadline-aware admission + queue aging
//	watchdog=F         kernel stall watchdog factor (0 off, else ≥ 1)
//	queue-wait=DUR     brownout ladder queue-wait p95 threshold (0 off)
//	eval=DUR           ladder evaluation period (default 250ms)
//	hold=DUR           ladder step-down hysteresis hold (default 2s)
//	retry-rate=R       failover retry budget, tokens/sec per model (0 off)
//	retry-burst=N      retry bucket capacity (default max(1, rate))
//
// Example: "admit=on,watchdog=8,queue-wait=50ms,retry-rate=5".
// An empty spec yields the zero config (everything off). The returned
// config has passed Validate.
func ParseOverloadSpec(spec string) (OverloadConfig, error) {
	var cfg OverloadConfig
	fields, err := faults.SpecFields(spec)
	if err != nil {
		return cfg, fmt.Errorf("overload spec: %w", err)
	}
	// A repeated key is not an error here: the last value wins.
	for _, f := range fields {
		key, val := f.Key, f.Val
		if val == "" {
			return OverloadConfig{}, fmt.Errorf("overload spec: %s: empty value", key)
		}
		switch key {
		case "admit":
			switch val {
			case "on", "true", "1":
				cfg.DeadlineAdmission = true
			case "off", "false", "0":
				cfg.DeadlineAdmission = false
			default:
				err = fmt.Errorf("want on or off, got %q", val)
			}
		case "watchdog":
			cfg.WatchdogFactor, err = strconv.ParseFloat(val, 64)
		case "queue-wait":
			cfg.QueueWaitP95, err = time.ParseDuration(val)
		case "eval":
			cfg.EvalEvery, err = time.ParseDuration(val)
		case "hold":
			cfg.Hold, err = time.ParseDuration(val)
		case "retry-rate":
			cfg.RetryRate, err = strconv.ParseFloat(val, 64)
		case "retry-burst":
			cfg.RetryBurst, err = strconv.Atoi(val)
		default:
			err = fmt.Errorf("unknown key (want admit, watchdog, queue-wait, eval, hold, retry-rate, retry-burst)")
		}
		if err != nil {
			return OverloadConfig{}, fmt.Errorf("overload spec: %s: %v", key, err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return OverloadConfig{}, err
	}
	return cfg, nil
}
