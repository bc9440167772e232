//go:build race

package types

func init() { raceEnabled = true }
