// Synthetic generators for the paper's three evaluation datasets.
//
// The module is offline, so the real Kaggle/UCI CSVs cannot be fetched.
// Instead, each generator reproduces the dataset's schema — feature names,
// types, cardinalities, the Table 2 sample counts, and the Table 2 per-party
// encoded feature counts — and plants a label process whose signal is split
// between the two parties so that the *distribution of achievable performance
// gains* matches the paper's shape: large gains on Titanic (ΔG ≈ 0.1–0.2),
// tiny on Credit (ΔG ≈ 0.5e-2), moderate on Adult (ΔG ≈ 1–3e-2). The
// bargaining market consumes only ΔG values, so this substitution preserves
// the behaviour under study (see EXPERIMENTS.md, "Datasets and Table 2").
package dataset

import (
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Spec bundles a generated dataset with its canonical vertical partition:
// the indices of the original features owned by the task party.
type Spec struct {
	Dataset      *Dataset
	TaskOriginal []int // indices into Dataset.Cols owned by the task party
}

// Split encodes the dataset and applies the canonical vertical split.
func (sp *Spec) Split() (*Encoded, *Split) {
	enc := sp.Dataset.Encode()
	return enc, enc.VerticalSplit(sp.TaskOriginal)
}

// Name is a generated dataset's identifier.
type Name string

// The three evaluation datasets of the paper.
const (
	Titanic Name = "titanic"
	Credit  Name = "credit"
	Adult   Name = "adult"
)

// DefaultSamples returns the paper's Table 2 sample count for the dataset.
func DefaultSamples(name Name) int {
	switch name {
	case Titanic:
		return 891
	case Credit:
		return 30000
	case Adult:
		return 48842
	default:
		panic("dataset: unknown dataset " + string(name))
	}
}

// Generate builds the named dataset with n samples (n <= 0 selects the
// paper's sample count). Generation is deterministic in (name, seed, n).
func Generate(name Name, seed uint64, n int) *Spec {
	if n <= 0 {
		n = DefaultSamples(name)
	}
	switch name {
	case Titanic:
		return GenerateTitanic(seed, n)
	case Credit:
		return GenerateCredit(seed, n)
	case Adult:
		return GenerateAdult(seed, n)
	default:
		panic("dataset: unknown dataset " + string(name))
	}
}

// AllNames lists the three datasets in paper order.
func AllNames() []Name { return []Name{Titanic, Credit, Adult} }

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// GenerateTitanic builds the Titanic survival dataset: 11 original features;
// task party 10 encoded features, data party 19 (Table 2).
//
// Task party (7 originals → 10 encoded): Pclass(3), Sex(2), Age, SibSp,
// Parch, Fare, FamilySize. Data party (4 originals → 19 encoded):
// Embarked(3), Title(5), Deck(9), CabinShared(2). The data-party features
// (Title and Deck especially) carry strong extra label signal, giving the
// large ΔG regime of the paper.
func GenerateTitanic(seed uint64, n int) *Spec {
	src := rng.New(seed).Split(0x71)
	cols := []Column{
		{Name: "Pclass", Kind: Categorical, Categories: []string{"1", "2", "3"}},
		{Name: "Sex", Kind: Categorical, Categories: []string{"male", "female"}},
		{Name: "Age", Kind: Numeric},
		{Name: "SibSp", Kind: Numeric},
		{Name: "Parch", Kind: Numeric},
		{Name: "Fare", Kind: Numeric},
		{Name: "FamilySize", Kind: Numeric},
		{Name: "Embarked", Kind: Categorical, Categories: []string{"S", "C", "Q"}},
		{Name: "Title", Kind: Categorical, Categories: []string{"Mr", "Mrs", "Miss", "Master", "Rare"}},
		{Name: "Deck", Kind: Categorical, Categories: []string{"A", "B", "C", "D", "E", "F", "G", "T", "U"}},
		{Name: "CabinShared", Kind: Categorical, Categories: []string{"no", "yes"}},
	}
	d := newDataset("titanic", cols, n)
	for i := 0; i < n; i++ {
		pclass := src.Choice([]float64{0.24, 0.21, 0.55})
		sex := src.Choice([]float64{0.65, 0.35})
		age := math.Max(0.5, src.Gauss(29.7, 14.5))
		sibsp := float64(src.Choice([]float64{0.68, 0.21, 0.06, 0.03, 0.02}))
		parch := float64(src.Choice([]float64{0.76, 0.13, 0.09, 0.02}))
		fare := src.LogNormal(3.0-float64(0.8*float64(pclass)), 0.9)
		family := sibsp + parch + 1

		// Title correlates with sex and age.
		var title int
		switch {
		case sex == 1 && age < 18:
			title = 2 // Miss
		case sex == 1:
			title = src.Choice([]float64{0, 0.55, 0.40, 0, 0.05})
		case age < 13:
			title = 3 // Master
		default:
			title = src.Choice([]float64{0.93, 0, 0, 0, 0.07})
		}
		// Deck correlates with class only mildly, so it carries survival
		// signal the task party cannot reconstruct from Pclass.
		var deck int
		switch pclass {
		case 0:
			deck = src.Choice([]float64{0.06, 0.17, 0.21, 0.12, 0.10, 0.04, 0.02, 0.01, 0.27})
		case 1:
			deck = src.Choice([]float64{0.02, 0.05, 0.08, 0.08, 0.08, 0.08, 0.04, 0.01, 0.56})
		default:
			deck = src.Choice([]float64{0.01, 0.02, 0.03, 0.04, 0.06, 0.07, 0.06, 0.01, 0.70})
		}
		shared := 0
		if deck != 8 && src.Bool(0.4) {
			shared = 1
		}
		embarked := src.Choice([]float64{0.72, 0.19, 0.09})

		row := []float64{float64(pclass), float64(sex), age, sibsp, parch, fare, family,
			float64(embarked), float64(title), float64(deck), float64(shared)}
		copy(d.Raw.Data[i*d.Raw.Cols:(i+1)*d.Raw.Cols], row)

		// Label: survival. Task features carry part of the signal; the
		// data-party features carry a large independent share (deck
		// location, boarding port, cabin sharing), which produces Titanic's
		// big-ΔG regime.
		logit := -0.7 +
			float64(1.1*float64(sex)) - float64(0.5*float64(pclass)) - float64(0.016*(age-30)) -
			float64(0.25*math.Max(family-4, 0)) + float64(0.10*math.Log1p(fare))
		switch title {
		case 1, 2: // Mrs, Miss
			logit += 0.5
		case 3: // Master
			logit += 1.0
		case 4: // Rare
			logit -= 0.3
		}
		// Deck effects: upper decks near the boats survive far more often.
		logit += []float64{0.6, 1.4, 1.1, 1.5, 1.7, 0.8, 0.1, -0.6, -0.7}[deck]
		if embarked == 1 { // Cherbourg
			logit += 0.7
		}
		if shared == 1 {
			logit += 0.45
		}
		d.Y[i] = bernoulli(src, sigmoid(logit))
	}
	return &Spec{Dataset: d, TaskOriginal: []int{0, 1, 2, 3, 4, 5, 6}}
}

// GenerateCredit builds the Taiwan credit-card default dataset: 25 original
// variables (24 features + ID, the ID being dropped at preprocessing like in
// the paper); task party 9 encoded features, data party 21 (Table 2).
//
// Task party (5 originals → 9 encoded): LIMIT_BAL, AGE, SEX(2),
// EDUCATION(4), BILL_AMT1. Data party (19 originals → 21 encoded):
// MARRIAGE(3), PAY_0..PAY_6 minus one (6 numeric), BILL_AMT2..BILL_AMT6 (5),
// PAY_AMT1..PAY_AMT6 (6), PAY_RATIO (1). The data-party signal is small,
// giving the tiny-ΔG regime of the paper.
func GenerateCredit(seed uint64, n int) *Spec {
	src := rng.New(seed).Split(0xC2)
	cols := []Column{
		{Name: "LIMIT_BAL", Kind: Numeric},
		{Name: "AGE", Kind: Numeric},
		{Name: "SEX", Kind: Categorical, Categories: []string{"male", "female"}},
		{Name: "EDUCATION", Kind: Categorical, Categories: []string{"graduate", "university", "highschool", "other"}},
		{Name: "BILL_AMT1", Kind: Numeric},
		{Name: "MARRIAGE", Kind: Categorical, Categories: []string{"married", "single", "other"}},
	}
	for k := 0; k < 6; k++ {
		cols = append(cols, Column{Name: "PAY_" + digits(k), Kind: Numeric})
	}
	for k := 2; k <= 6; k++ {
		cols = append(cols, Column{Name: "BILL_AMT" + digits(k), Kind: Numeric})
	}
	for k := 1; k <= 6; k++ {
		cols = append(cols, Column{Name: "PAY_AMT" + digits(k), Kind: Numeric})
	}
	cols = append(cols, Column{Name: "PAY_RATIO", Kind: Numeric})
	d := newDataset("credit", cols, n)
	for i := 0; i < n; i++ {
		limit := src.LogNormal(11.7, 0.8)
		age := math.Max(21, src.Gauss(35.5, 9.2))
		sex := src.Choice([]float64{0.4, 0.6})
		edu := src.Choice([]float64{0.35, 0.47, 0.16, 0.02})
		marriage := src.Choice([]float64{0.46, 0.53, 0.01})

		// Latent repayment discipline drives both the PAY_* history and the
		// default label; most of it is already visible to the task party via
		// LIMIT_BAL/EDUCATION, so the data-party increment is small.
		discipline := float64(0.5*math.Log(limit/1e5)) - float64(0.25*float64(edu)) + float64(0.01*(age-35)) + src.Gauss(0, 1)

		pays := make([]float64, 6)
		for k := range pays {
			base := -discipline + src.Gauss(0, 0.8)
			pays[k] = math.Round(math.Max(-2, math.Min(8, base)))
		}
		bill1 := math.Max(0, src.Gauss(0.35, 0.2)) * limit
		bills := make([]float64, 5)
		prev := bill1
		for k := range bills {
			prev = math.Max(0, float64(prev*src.Uniform(0.85, 1.1))+src.Gauss(0, 0.02*limit))
			bills[k] = prev
		}
		payAmts := make([]float64, 6)
		for k := range payAmts {
			payAmts[k] = math.Max(0, (0.05+float64(0.04*discipline)+src.Gauss(0, 0.02))*bill1)
		}
		payRatio := payAmts[0] / math.Max(1, bill1)

		row := []float64{limit, age, float64(sex), float64(edu), bill1, float64(marriage)}
		row = append(row, pays...)
		row = append(row, bills...)
		row = append(row, payAmts...)
		row = append(row, payRatio)
		copy(d.Raw.Data[i*d.Raw.Cols:(i+1)*d.Raw.Cols], row)

		// Default label: dominated by task-visible signal; PAY_* history adds
		// a small increment on top.
		logit := -1.35 - float64(0.5*math.Log(limit/1.2e5)) + float64(0.22*float64(edu)) - float64(0.008*(age-35))
		logit += float64(0.1 * (pays[0] + float64(0.5*pays[1]) + float64(0.25*pays[2]))) // small data-party signal
		logit += float64(0.3 * (0.1 - math.Min(payRatio, 0.3)))
		if marriage == 1 {
			logit -= 0.04
		}
		d.Y[i] = bernoulli(src, sigmoid(logit))
	}
	return &Spec{Dataset: d, TaskOriginal: []int{0, 1, 2, 3, 4}}
}

// GenerateAdult builds the census-income dataset: 14 original features; task
// party 52 encoded features, data party 36 (Table 2).
//
// Task party (10 originals → 52 encoded): education(16), occupation(15),
// workclass(8), marital-status(7), age, education-num, hours-per-week,
// capital-gain, capital-loss, fnlwgt. Data party (4 originals → 36 encoded):
// relationship(6), race(5), sex(2), native-country(23). Data-party signal is
// moderate, giving ΔG ≈ 1–3e-2.
func GenerateAdult(seed uint64, n int) *Spec {
	src := rng.New(seed).Split(0xAD)
	educations := []string{"Bachelors", "Some-college", "11th", "HS-grad", "Prof-school",
		"Assoc-acdm", "Assoc-voc", "9th", "7th-8th", "12th", "Masters", "1st-4th",
		"10th", "Doctorate", "5th-6th", "Preschool"}
	occupations := []string{"Tech-support", "Craft-repair", "Other-service", "Sales",
		"Exec-managerial", "Prof-specialty", "Handlers-cleaners", "Machine-op-inspct",
		"Adm-clerical", "Farming-fishing", "Transport-moving", "Priv-house-serv",
		"Protective-serv", "Armed-Forces", "Unknown"}
	workclasses := []string{"Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
		"Local-gov", "State-gov", "Without-pay", "Never-worked"}
	maritals := []string{"Married-civ-spouse", "Divorced", "Never-married", "Separated",
		"Widowed", "Married-spouse-absent", "Married-AF-spouse"}
	relationships := []string{"Wife", "Own-child", "Husband", "Not-in-family",
		"Other-relative", "Unmarried"}
	races := []string{"White", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other", "Black"}
	countries := []string{"United-States", "Mexico", "Philippines", "Germany", "Canada",
		"Puerto-Rico", "El-Salvador", "India", "Cuba", "England", "Jamaica", "South",
		"China", "Italy", "Dominican-Republic", "Vietnam", "Guatemala", "Japan",
		"Poland", "Columbia", "Taiwan", "Haiti", "Other"}
	cols := []Column{
		{Name: "education", Kind: Categorical, Categories: educations},
		{Name: "occupation", Kind: Categorical, Categories: occupations},
		{Name: "workclass", Kind: Categorical, Categories: workclasses},
		{Name: "marital-status", Kind: Categorical, Categories: maritals},
		{Name: "age", Kind: Numeric},
		{Name: "education-num", Kind: Numeric},
		{Name: "hours-per-week", Kind: Numeric},
		{Name: "capital-gain", Kind: Numeric},
		{Name: "capital-loss", Kind: Numeric},
		{Name: "fnlwgt", Kind: Numeric},
		{Name: "relationship", Kind: Categorical, Categories: relationships},
		{Name: "race", Kind: Categorical, Categories: races},
		{Name: "sex", Kind: Categorical, Categories: []string{"Male", "Female"}},
		{Name: "native-country", Kind: Categorical, Categories: countries},
	}
	eduNum := []float64{13, 10, 7, 9, 15, 12, 11, 5, 4, 8, 14, 2, 6, 16, 3, 1}
	d := newDataset("adult", cols, n)
	for i := 0; i < n; i++ {
		edu := src.Choice([]float64{16, 22, 4, 32, 2, 3, 4, 2, 2, 1, 5, 1, 3, 1, 1, 1})
		occ := src.IntN(len(occupations))
		wc := src.Choice([]float64{70, 8, 3, 3, 6, 4, 1, 1})
		age := math.Max(17, src.Gauss(38.6, 13.7))
		marital := src.Choice([]float64{46, 14, 33, 3, 3, 1, 0.1})
		hours := math.Max(1, src.Gauss(40.4, 12.3))
		capGain := 0.0
		if src.Bool(0.08) {
			capGain = src.LogNormal(8.3, 1.1)
		}
		capLoss := 0.0
		if src.Bool(0.047) {
			capLoss = src.LogNormal(7.5, 0.4)
		}
		fnlwgt := src.LogNormal(12.0, 0.5)

		sex := src.Choice([]float64{0.67, 0.33})
		// Relationship follows marital status only loosely, so it carries
		// household signal the task party cannot reconstruct.
		var rel int
		switch {
		case marital == 0 && sex == 0 && src.Bool(0.75):
			rel = 2 // Husband
		case marital == 0 && sex == 1 && src.Bool(0.75):
			rel = 0 // Wife
		case marital == 2 && age < 25 && src.Bool(0.6):
			rel = 1 // Own-child
		default:
			rel = src.Choice([]float64{0.05, 0.15, 0.05, 0.45, 0.1, 0.2})
		}
		race := src.Choice([]float64{0.85, 0.03, 0.01, 0.01, 0.10})
		country := src.Choice([]float64{89, 2, 0.6, 0.4, 0.4, 0.4, 0.3, 0.3, 0.3, 0.3,
			0.25, 0.25, 0.25, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.15, 0.15, 3})

		row := []float64{float64(edu), float64(occ), float64(wc), float64(marital),
			age, eduNum[edu], hours, capGain, capLoss, fnlwgt,
			float64(rel), float64(race), float64(sex), float64(country)}
		copy(d.Raw.Data[i*d.Raw.Cols:(i+1)*d.Raw.Cols], row)

		// Income > 50k: mostly task-visible (education, occupation, age,
		// hours, capital); relationship/sex add a moderate increment.
		logit := -3.1 + float64(0.33*(eduNum[edu]-9)) + float64(0.035*(age-38)) + float64(0.028*(hours-40)) +
			float64(0.9*math.Log1p(capGain/1e4)) + float64(0.45*math.Log1p(capLoss/2e3))
		switch occ {
		case 4, 5: // Exec-managerial, Prof-specialty
			logit += 0.55
		case 2, 6, 9, 11: // service/manual
			logit -= 0.4
		}
		if wc == 2 || wc == 3 { // self-emp-inc, federal-gov
			logit += 0.3
		}
		// Data-party signal (moderate).
		switch rel {
		case 0, 2: // Wife or Husband: dual-earner household effect
			logit += 1.1
		case 1: // Own-child
			logit -= 0.8
		}
		if sex == 0 {
			logit += 0.5
		}
		if country == 0 {
			logit += 0.35
		}
		if race == 0 || race == 1 {
			logit += 0.2
		}
		d.Y[i] = bernoulli(src, sigmoid(logit))
	}
	return &Spec{Dataset: d, TaskOriginal: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}
}

func newDataset(name string, cols []Column, n int) *Dataset {
	return &Dataset{
		Name: name,
		Cols: cols,
		Raw:  tensor.NewMatrix(n, len(cols)),
		Y:    make([]int, n),
	}
}

func bernoulli(src *rng.Source, p float64) int {
	if src.Bool(p) {
		return 1
	}
	return 0
}

func digits(k int) string {
	if k < 10 {
		return string(rune('0' + k))
	}
	return string(rune('0'+k/10)) + string(rune('0'+k%10))
}
