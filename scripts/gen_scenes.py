"""Generate the authored scene files. Records carry no id: the scene loader derives
each from its type and position, and ``oid`` derives the ids that records name."""

from __future__ import annotations

import json
from pathlib import Path

from sdtplan.world import format_object_id

OUT = Path(__file__).resolve().parents[1] / "src" / "sdtplan" / "data" / "scenes"

AGENT = {
    "position": [0.0, 0.90, 0.0],
    "crouched": False,
}


def obj(type_name, pos, capacity=0, parent=None, flags=None, temperature="RoomTemp"):
    entry = {
        "type": type_name,
        "position": list(pos),
        "capacity": capacity,
    }
    if parent is not None:
        entry["parent_receptacle"] = parent
    if flags:
        entry["flags"] = flags
    if temperature != "RoomTemp":
        entry["temperature"] = temperature
    return entry


def oid(type_name, pos):
    return format_object_id(type_name, tuple(pos))


def scene(name, objects):
    path = OUT / f"{name}.json"
    path.write_text(json.dumps({"agent": AGENT, "objects": objects}, indent=2) + "\n")
    print(f"wrote {path}")


# tasks 1 and 2
counter = oid("CounterTop", (1.10, 0.95, 0.30))
scene(
    "kitchen_potato",
    [
        obj("Microwave", (0.60, 1.10, 0.60), capacity=2),
        obj("Fridge", (-1.30, 0.90, 0.99), capacity=6),
        obj("Sink", (0.80, 0.85, -0.90), capacity=4),
        obj("Faucet", (0.80, 1.05, -1.20)),
        obj("CounterTop", (1.10, 0.95, 0.30), capacity=10),
        obj("Potato", (1.10, 0.92, 0.45), parent=counter),
        obj("ButterKnife", (1.10, 0.97, 0.15), parent=counter),
    ],
)

# tasks 3 and 5
counter = oid("CounterTop", (0.95, 0.95, 0.20))
scene(
    "kitchen_knife",
    [
        obj("Drawer", (0.40, 0.82, -0.50), capacity=2),
        obj("Drawer", (1.60, 0.82, -0.80), capacity=3),
        obj("Sink", (0.50, 0.85, 0.90), capacity=4),
        obj("Faucet", (0.50, 1.05, 1.20)),
        obj("CounterTop", (0.95, 0.95, 0.20), capacity=10),
        obj("Knife", (0.95, 0.97, 0.35), parent=counter, flags={"isDirty": True}),
        obj("Lettuce", (0.95, 0.97, 0.05), parent=counter),
    ],
)

# tasks 4, 6, 7 and 13
counter_b = oid("CounterTop", (1.60, 0.95, -0.30))
scene(
    "kitchen_fruit",
    [
        obj("Fridge", (-0.80, 0.90, 0.40), capacity=6),
        obj("Microwave", (1.40, 1.10, 0.60), capacity=2),
        obj("Sink", (0.30, 0.85, -1.00), capacity=4),
        obj("Faucet", (0.30, 1.05, -1.30)),
        obj("CounterTop", (0.70, 0.95, 0.10), capacity=4),
        obj("CounterTop", (1.60, 0.95, -0.30), capacity=8),
        obj("GarbageCan", (1.20, 0.90, -1.30), capacity=4),
        obj("Knife", (1.60, 0.97, -0.15), parent=counter_b),
        obj("Apple", (1.60, 0.97, -0.30), parent=counter_b),
        obj("Tomato", (1.60, 0.97, -0.45), parent=counter_b),
        obj("Bread", (1.60, 0.97, -0.60), parent=counter_b),
    ],
)

# task 8
counter_a = oid("CounterTop", (0.80, 0.95, -0.30))
scene(
    "kitchen_plate",
    [
        obj("Cabinet", (0.50, 0.92, 0.45), capacity=4),
        obj("Fridge", (-1.00, 0.90, 0.80), capacity=6),
        obj("CounterTop", (0.80, 0.95, -0.30), capacity=3),
        obj("CounterTop", (1.70, 0.95, 0.60), capacity=6),
        obj("Plate", (0.80, 0.94, -0.15), parent=counter_a),
    ],
)

# task 9
scene(
    "kitchen_wine",
    [
        obj("Drawer", (0.50, 0.82, 0.30), capacity=3),
        obj("Fridge", (-1.30, 0.90, 0.99), capacity=6),
        obj("DiningTable", (1.20, 0.90, 1.40), capacity=8),
        obj("CounterTop", (0.90, 0.95, -0.60), capacity=8),
        obj("WineBottle", (-1.45, 0.76, 1.10)),
    ],
)

# task 10
counter = oid("CounterTop", (0.60, 0.95, 0.05))
scene(
    "kitchen_mug",
    [
        obj("CounterTop", (0.60, 0.95, 0.05), capacity=6),
        obj("Mug", (0.60, 0.94, 0.20), parent=counter),
        obj("Sink", (0.40, 0.85, -0.80), capacity=4),
        obj("Faucet", (0.40, 1.05, -1.10)),
        obj("CoffeeMachine", (1.30, 0.98, 0.70), capacity=2),
    ],
)

# task 11
counter = oid("CounterTop", (0.50, 0.95, 0.15))
scene(
    "bathroom",
    [
        obj("CounterTop", (0.50, 0.95, 0.15), capacity=4),
        obj("Cloth", (0.50, 0.96, 0.30), parent=counter, flags={"isDirty": True}),
        obj("Sink", (0.90, 0.85, -0.60), capacity=3),
        obj("Faucet", (0.90, 1.05, -0.90)),
        obj("Toilet", (1.60, 0.88, 0.80), capacity=2),
    ],
)

# task 12: deliberately no closed openable receptacles
counter = oid("CounterTop", (0.70, 0.95, 0.10))
scene(
    "kitchen_sponge",
    [
        obj("CounterTop", (0.70, 0.95, 0.10), capacity=6),
        obj("Sponge", (0.70, 0.96, 0.25), parent=counter),
        obj("Sink", (0.45, 0.85, -0.75), capacity=4),
        obj("Faucet", (0.45, 1.05, -1.05)),
    ],
)

# task 14
counter = oid("CounterTop", (0.95, 0.95, 0.20))
scene(
    "kitchen_apple_cool",
    [
        obj("Drawer", (0.45, 0.82, 0.35), capacity=3),
        obj("Fridge", (-1.10, 0.90, 0.70), capacity=6),
        obj("CounterTop", (0.95, 0.95, 0.20), capacity=8),
        obj("DiningTable", (1.40, 0.90, 1.30), capacity=8),
        obj("Sink", (0.35, 0.85, -0.85), capacity=4),
        obj("Knife", (0.95, 0.97, 0.35), parent=counter),
        obj("Apple", (0.95, 0.97, 0.05), parent=counter),
    ],
)
