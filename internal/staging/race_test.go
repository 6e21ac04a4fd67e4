//go:build race

package staging

func init() { raceEnabled = true }
