package layering

// The naive Figure-3 reference, for the external on-demand tests
// (ondemand_test.go drives the engine, which imports this package).
var (
	Figure3               = figure3
	RequireMatchesFigure3 = requireMatchesFigure3
)
