//go:build race

package run

func init() { raceEnabled = true }
