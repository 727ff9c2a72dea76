package roadside

import (
	"math"
	"strings"
	"testing"
)

// The extension features exposed through the façade: budgeted placement,
// drive plans, simulation, visualization, and the ratio study.

func TestPublicAPIBudgeted(t *testing.T) {
	e := buildFig4(t, LinearUtility{D: 6})
	bp := &BudgetedProblem{Costs: UniformCosts(e, 1), Budget: 2}
	pl, err := BudgetedGreedy(e, bp)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Spent > 2 || len(pl.Nodes) == 0 {
		t.Errorf("placement %+v", pl)
	}
}

func TestPublicAPIDrivePlan(t *testing.T) {
	e := buildFig4(t, LinearUtility{D: 6})
	plan, err := e.Plan(0, []NodeID{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Detours || plan.Detour != 2 {
		t.Errorf("plan = %+v", plan)
	}
	plans, expected, err := e.PlanAll([]NodeID{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 4 || math.Abs(expected-8) > 1e-9 {
		t.Errorf("plans = %d, expected = %v", len(plans), expected)
	}
}

func TestPublicAPISimulate(t *testing.T) {
	e := buildFig4(t, LinearUtility{D: 6})
	res, err := Simulate(e, []NodeID{1, 3}, SimConfig{Days: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Expected-8) > 1e-9 {
		t.Errorf("expected = %v", res.Expected)
	}
	if math.Abs(res.MeanCustomers-8) > 1 {
		t.Errorf("simulated mean = %v", res.MeanCustomers)
	}
}

func TestPublicAPIGridPlan(t *testing.T) {
	sc, err := NewGridScenario(5, 100)
	if err != nil {
		t.Fatal(err)
	}
	f := GridFlow{
		EntrySide: West, EntryIndex: 2, ExitSide: East, ExitIndex: 2,
		Volume: 10, Alpha: 1,
	}
	rap, err := sc.Node(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sc.Plan(f, []NodeID{rap}, LinearUtility{D: 400})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Detours || plan.Detour != 0 {
		t.Errorf("plan = %+v", plan)
	}
}

func TestPublicAPIMapView(t *testing.T) {
	city, err := Seattle(5)
	if err != nil {
		t.Fatal(err)
	}
	m := &MapView{Graph: city.Graph, Shop: 0, RAPs: []NodeID{10}, Width: 40, Height: 20}
	out, err := m.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "S") || !strings.Contains(out, "R") {
		t.Error("map missing markers")
	}
	if MapLegend() == "" {
		t.Error("empty legend")
	}
}

func TestPublicAPIRatiosAndAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("study run")
	}
	rr, err := RunRatios(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Rows) != 3 {
		t.Errorf("ratio rows = %d", len(rr.Rows))
	}
	ab, err := Ablation(FigureOptions{Quick: true, Trials: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ab.Series) != 5 {
		t.Errorf("ablation series = %d", len(ab.Series))
	}
}

func TestPublicAPISchedule(t *testing.T) {
	e := buildFig4(t, LinearUtility{D: 6})
	p := e.Problem()
	p2 := *p
	p2.Shop = 4
	campaigns := []Campaign{
		{Name: "a", Problem: p},
		{Name: "b", Problem: &p2},
	}
	raps := []NodeID{1, 2, 3, 4}
	got, err := ScheduleGreedy(raps, campaigns, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Welfare <= 0 {
		t.Errorf("welfare = %v", got.Welfare)
	}
	w, err := ScheduleWelfare(raps, campaigns, 1, got.RAPs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-got.Welfare) > 1e-9 {
		t.Errorf("welfare mismatch: %v vs %v", w, got.Welfare)
	}
}
