// Package sim is the fixture stub for the window coordinator; the analyzer
// matches Windows by name and import-path suffix.
package sim

type Time int64

type Windows struct {
	Parts   int
	Workers int
	Width   Time
	NextAt  func(p int) (Time, bool)
	Drain   func(p int, end Time)
	Barrier func(end Time)
}

func (w *Windows) RunUntil(until Time) {}
