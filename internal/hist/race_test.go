//go:build race

package hist

func init() { raceEnabled = true }
