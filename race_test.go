//go:build race

package starlink_test

func init() { raceEnabled = true }
