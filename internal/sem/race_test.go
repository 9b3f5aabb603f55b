//go:build race

package sem

func init() { raceEnabled = true }
