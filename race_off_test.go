//go:build !race

package cmabhs

const raceEnabled = false
