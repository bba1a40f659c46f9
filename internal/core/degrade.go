package core

import (
	"fmt"

	"mulayer/internal/device"
	"mulayer/internal/partition"
)

// degrade restricts planner options to the healthy processors. An unhealthy
// processor is removed from the allowed set, which makes the partitioner
// degenerate naturally: channel splitting needs both CPU and GPU, so losing
// either forces p=0/p=1 plans; branch distribution and three-way NPU
// cooperation likewise require the full set and switch themselves off.
// Returns an error when the mechanism cannot run on what remains.
func degrade(o partition.Options, rc RunConfig) (partition.Options, error) {
	u := rc.Unhealthy
	if u == 0 {
		return o, nil
	}
	if o.NPUOnly {
		if u.Has(device.NPU) {
			return o, fmt.Errorf("core: mechanism %s cannot run with unhealthy processors %s", rc.Mechanism, u)
		}
		return o, nil
	}
	if u.Has(device.CPU) {
		o.AllowCPU = false
	}
	if u.Has(device.GPU) {
		o.AllowGPU = false
	}
	if u.Has(device.NPU) {
		o.AllowNPU = false
	}
	if !o.AllowCPU && !o.AllowGPU {
		return o, fmt.Errorf("core: mechanism %s cannot run with unhealthy processors %s", rc.Mechanism, u)
	}
	return o, nil
}
