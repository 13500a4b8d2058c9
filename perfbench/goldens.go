package main

// Committed goldens. goldenRepro is the sha256 of `repro -exp all`
// text-mode stdout (byte-identical at any -j and with or without a
// store); goldenSweeps holds the sha256 of each sweep's Render output,
// which cmd/sweep prints verbatim for the same base model and axes.
var (
	goldenRepro = "5601117509a789d4dffcb1acff0908bedda22a6826ce2f7c3032260c0f86de4e"

	goldenSweeps = map[string]string{
		"goldencove-node": "1cf4eeca2d9959b680f8db3e23481eaf430a599171060fbb871a453e80e53db9",
		"zen4-node":       "a8b6894681aef79fd019a2f36284afa94f64363d5b88d2cccbe899bd84062760",
		"neoversev2-node": "6fa15bef1dec06cea604fdbaf0c2553c9eb8a4c36d43d684b3cd4519590acc64",
		"zen4-ports":      "66f8f45680f7446aea1f09bddceed6b8ec7885d62f8d39c088e184c0a64b8370",
	}
)

// Reference values for the accuracy record: the paper's published value
// where it states one, and the value this repository reproduces today
// (EXPERIMENTS.md, at the precision reported there).
type reference struct {
	paper     *float64
	simulated float64
}

// tableIBandwidth is Table I's measured memory bandwidth in GB/s.
var tableIBandwidth = map[string]reference{
	"neoversev2": {ptr(467), 467},
	"goldencove": {ptr(273), 274},
	"zen4":       {ptr(360), 360},
}

// fig4FullSocket is Fig. 4's traffic/stored ratio at full socket. The
// paper states 1.0 (all write-allocate traffic evaded) or 2.0 (none)
// where its narrative gives a value.
var fig4FullSocket = map[string]reference{
	"GCS":             {ptr(1.0), 1.00},
	"SPR":             {nil, 1.75},
	"SPR NT stores":   {nil, 1.10},
	"Genoa":           {ptr(2.0), 2.00},
	"Genoa NT stores": {ptr(1.0), 1.00},
}

// Fig. 3, all 416 blocks, OSACA-style model: share of predictions right
// of zero (RPE >= 0) and mean absolute RPE.
const (
	fig3OSACARight   = 0.96
	fig3OSACAMeanAbs = 0.12
)
