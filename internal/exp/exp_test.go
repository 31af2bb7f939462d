package exp

import "testing"

func TestByName(t *testing.T) {
	if _, ok := ByName("fig5"); !ok {
		t.Error("fig5 missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown name found")
	}
	if len(All()) < 19 {
		t.Errorf("only %d experiments registered", len(All()))
	}
}

func TestOptionsScale(t *testing.T) {
	if got := (Options{Scale: 0.5}).scale(1000); got != 500 {
		t.Errorf("scale(1000) at 0.5 = %d", got)
	}
	if got := (Options{}).scale(1000); got != 1000 {
		t.Errorf("default scale = %d", got)
	}
	if got := (Options{Scale: 1e-9}).scale(1000); got < 100 {
		t.Errorf("clamped scale produced %d", got)
	}
}

func TestTableAddFormatsFloats(t *testing.T) {
	tab := &Table{Columns: []string{"a", "b"}}
	tab.Add(1.23456789, "x")
	if tab.Rows[0][0] != "1.235" {
		t.Errorf("float formatted as %q", tab.Rows[0][0])
	}
}
