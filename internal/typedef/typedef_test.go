package typedef

import (
	"strings"
	"testing"

	"repro/internal/obj"
)

func setup(t *testing.T) (*obj.Table, *Manager) {
	t.Helper()
	tab := obj.NewTable(1 << 20)
	return tab, NewManager(tab)
}

func define(t *testing.T, m *Manager, name string) obj.AD {
	t.Helper()
	tdo, f := m.Define(name, obj.LevelGlobal, obj.NilIndex)
	if f != nil {
		t.Fatalf("Define(%q): %v", name, f)
	}
	return tdo
}

func TestDefineAndName(t *testing.T) {
	_, m := setup(t)
	tdo := define(t, m, "tape_drive")
	name, f := m.Name(tdo)
	if f != nil {
		t.Fatal(f)
	}
	if name != "tape_drive" {
		t.Fatalf("Name = %q", name)
	}
}

func TestDefineNameTooLong(t *testing.T) {
	_, m := setup(t)
	if _, f := m.Define(strings.Repeat("x", 61), 0, obj.NilIndex); !obj.IsFault(f, obj.FaultBounds) {
		t.Fatalf("long name: %v", f)
	}
}

func TestCreateInstanceLabelsType(t *testing.T) {
	tab, m := setup(t)
	tdo := define(t, m, "tape_drive")
	inst, f := m.CreateInstance(tdo, obj.CreateSpec{DataLen: 16})
	if f != nil {
		t.Fatal(f)
	}
	ut, f := tab.UserTypeOf(inst)
	if f != nil {
		t.Fatal(f)
	}
	if ut != tdo.Index {
		t.Fatalf("UserTypeOf = %d, want %d", ut, tdo.Index)
	}
	ok, f := m.Is(tdo, inst)
	if f != nil || !ok {
		t.Fatalf("Is = %v, %v", ok, f)
	}
}

func TestCreateInstanceNeedsRight(t *testing.T) {
	_, m := setup(t)
	tdo := define(t, m, "t")
	weak := tdo.Restrict(RightCreate)
	if _, f := m.CreateInstance(weak, obj.CreateSpec{DataLen: 4}); !obj.IsFault(f, obj.FaultRights) {
		t.Fatalf("create without right: %v", f)
	}
}

func TestIsDistinguishesTypes(t *testing.T) {
	_, m := setup(t)
	tape := define(t, m, "tape_drive")
	disk := define(t, m, "disk_drive")
	inst, f := m.CreateInstance(tape, obj.CreateSpec{DataLen: 4})
	if f != nil {
		t.Fatal(f)
	}
	if ok, _ := m.Is(disk, inst); ok {
		t.Fatal("tape instance claimed by disk TDO")
	}
	// A plain object is an instance of nothing.
	plain, _ := m.Table.Create(obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4})
	if ok, _ := m.Is(tape, plain); ok {
		t.Fatal("untyped object claimed by tape TDO")
	}
}

func TestAmplify(t *testing.T) {
	// The sealed-object pattern: users hold read-only capabilities; the
	// manager amplifies on entry.
	_, m := setup(t)
	tdo := define(t, m, "sealed")
	inst, f := m.CreateInstance(tdo, obj.CreateSpec{DataLen: 8})
	if f != nil {
		t.Fatal(f)
	}
	user := inst.Restrict(obj.RightWrite | obj.RightDelete)
	if f := m.Table.WriteByteAt(user, 0, 1); !obj.IsFault(f, obj.FaultRights) {
		t.Fatalf("user wrote sealed object: %v", f)
	}
	strong, f := m.Amplify(tdo, user, obj.RightWrite)
	if f != nil {
		t.Fatal(f)
	}
	if f := m.Table.WriteByteAt(strong, 0, 1); f != nil {
		t.Fatalf("manager write after amplify: %v", f)
	}
}

func TestAmplifyRefusals(t *testing.T) {
	_, m := setup(t)
	tape := define(t, m, "tape")
	disk := define(t, m, "disk")
	inst, _ := m.CreateInstance(tape, obj.CreateSpec{DataLen: 4})

	// Without the amplify right.
	weak := tape.Restrict(RightAmplify)
	if _, f := m.Amplify(weak, inst, obj.RightWrite); !obj.IsFault(f, obj.FaultRights) {
		t.Errorf("amplify without right: %v", f)
	}
	// Through the wrong TDO.
	if _, f := m.Amplify(disk, inst, obj.RightWrite); !obj.IsFault(f, obj.FaultType) {
		t.Errorf("amplify via wrong TDO: %v", f)
	}
	// On a non-TDO.
	if _, f := m.Amplify(inst, inst, obj.RightWrite); !obj.IsFault(f, obj.FaultType) {
		t.Errorf("amplify via non-TDO: %v", f)
	}
}

func TestDestructionFilter(t *testing.T) {
	tab, m := setup(t)
	tdo := define(t, m, "tape_drive")
	port, f := tab.Create(obj.CreateSpec{Type: obj.TypePort, DataLen: 32, AccessSlots: 8})
	if f != nil {
		t.Fatal(f)
	}

	// Unarmed by default.
	if _, armed := m.FilterPort(tdo.Index); armed {
		t.Fatal("filter armed at birth")
	}
	if f := m.ArmDestructionFilter(tdo, port); f != nil {
		t.Fatal(f)
	}
	got, armed := m.FilterPort(tdo.Index)
	if !armed || got.Index != port.Index {
		t.Fatalf("FilterPort = %v, %v", got, armed)
	}
}

func TestArmFilterRefusals(t *testing.T) {
	tab, m := setup(t)
	tdo := define(t, m, "t")
	port, _ := tab.Create(obj.CreateSpec{Type: obj.TypePort, DataLen: 32, AccessSlots: 8})
	notPort, _ := tab.Create(obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4})

	weak := tdo.Restrict(RightRetype)
	if f := m.ArmDestructionFilter(weak, port); !obj.IsFault(f, obj.FaultRights) {
		t.Errorf("arm without retype right: %v", f)
	}
	if f := m.ArmDestructionFilter(tdo, notPort); !obj.IsFault(f, obj.FaultType) {
		t.Errorf("arm with non-port: %v", f)
	}
	// FilterPort on a non-TDO index reports unarmed, never faults.
	if _, armed := m.FilterPort(notPort.Index); armed {
		t.Error("non-TDO reported armed filter")
	}
	if _, armed := m.FilterPort(obj.Index(9999)); armed {
		t.Error("bogus index reported armed filter")
	}
}

func TestTDOIsFilable(t *testing.T) {
	// The TDO's state lives entirely in its own parts, so byte-copying
	// its parts (what filing does) preserves the definition. Snapshot
	// name before and after a write of unrelated flags.
	_, m := setup(t)
	tdo := define(t, m, "persistent_type")
	if f := m.Table.WriteBytes(tdo, offFlags, []byte{flagFilterArmed, 0}); f != nil {
		t.Fatal(f)
	}
	name, f := m.Name(tdo)
	if f != nil || name != "persistent_type" {
		t.Fatalf("Name after flag write = %q, %v", name, f)
	}
}
