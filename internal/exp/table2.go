package exp

import "repro/internal/dataset"

// Table2Row is one dataset's statistics row.
type Table2Row struct {
	Stats dataset.Stats
}

// RunTable2 regenerates Table 2: samples, original feature counts, and
// per-party preprocessed (indicator-encoded) feature counts for the three
// datasets at their paper-scale sample counts.
func RunTable2(seed uint64) []Table2Row {
	var rows []Table2Row
	for _, name := range dataset.AllNames() {
		spec := dataset.Generate(name, seed, 0) // paper sample counts
		_, split := spec.Split()
		st := dataset.TableStats(spec.Dataset, split)
		if name == dataset.Credit {
			// The Credit source data carries an ID column that preprocessing
			// drops; Table 2 counts it among the 25 original variables.
			st.OriginalFeatures++
		}
		rows = append(rows, Table2Row{Stats: st})
	}
	return rows
}
