//go:build race

package visited

func init() { raceEnabled = true }
