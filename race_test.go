//go:build race

package mulayer_test

func init() { raceEnabled = true }
