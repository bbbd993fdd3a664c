"""Golden digests of every registered workload's generated program.

Each digest covers the five columns of every thread, both schedules and
the preallocated set, so any change to what a generator emits -- an
event, its order, an extra or missing RNG draw, a schedule entry --
changes it.  The values were recorded from the generators as they were
when each built one ``Instr`` per event; the column-appending
generators must reproduce them bit for bit.
"""

import hashlib

import numpy as np
import pytest

from repro.workloads.registry import WORKLOADS

#: (workload, (threads, events per thread, seed)) -> sha256.
GOLDEN = {
    ("BARNES", (2, 5000, 0)):
        "a6ef81d101e433d7b8879cdbc970f1790ee5834a732399ecca93e93a33941efd",
    ("BARNES", (3, 12000, 7)):
        "ce622350c24fc25534d7e340ab0f283c9a816ac7659cde3dd619979ae3c67b45",
    ("BARNES", (2, 28000, 3)):
        "47e114efd44197ac39604aa6dbbe1de1d0a6d1b3f271021aac27b66e982fa31b",
    ("FFT", (2, 5000, 0)):
        "75690134167e599420c69e5e60b1e2dc7dbbc049a3e9a4c889a936b9696f7452",
    ("FFT", (3, 12000, 7)):
        "65dfeb5192825ac4c2c2467f0bd066e417ac01338f40eacc6562ec2bec24809c",
    ("FFT", (2, 28000, 3)):
        "eafa3f0d6634bfc48959da78951d77d00282eee46df054a70ddfea271525b8da",
    ("FMM", (2, 5000, 0)):
        "5ca5dd173f17c3654b746da808bb54b0c3ba1eb8ad84357425039dc69485dd4e",
    ("FMM", (3, 12000, 7)):
        "88f0dbfbdbd0641241be71b7e9464b1cec33bef5177d5e10f59783d55a3a5845",
    ("FMM", (2, 28000, 3)):
        "d55adc5b204128fa05ded38f8c410e5848eba06cf1d6b793d8021dd9af3b45bb",
    ("OCEAN", (2, 5000, 0)):
        "04e7866652547524ae5d67456ec4f6a319297c9c261053be2128752400ea82dd",
    ("OCEAN", (3, 12000, 7)):
        "f493ac9976cbced29810301420240fc9df107bb49e04a1e8f2b6989208dec389",
    ("OCEAN", (2, 28000, 3)):
        "d201213d2c7b1ee08e33ada816ae510b00bf0332bff42bbba627142380be6b16",
    ("BLACKSCHOLES", (2, 5000, 0)):
        "73f672a0b03761d3c1426c7ce556211e2e861f553916ac44f2b2a7604d6ee579",
    ("BLACKSCHOLES", (3, 12000, 7)):
        "d1e6bc78e46c6120af4d3f4703d282a3ccd08f6daac920d79ed67bf5e5513b57",
    ("BLACKSCHOLES", (2, 28000, 3)):
        "0619e42ef65105a760b16e8c94946895835484ca1f5f4358dbae559429769180",
    ("LU", (2, 5000, 0)):
        "e5808d50c98564ae1255882e2af1da92babc0b09361674b4e9d98b0216bcf3e9",
    ("LU", (3, 12000, 7)):
        "fe9a8e2b52ada24d347cbb4847623141021064d33ce4bd00a0732ee7b8dc1688",
    ("LU", (2, 28000, 3)):
        "19390d2ebad33ed14f0bf3a7dc6232817f5215724e3e621729039ed903da1fa1",
    ("HANDOFF", (2, 5000, 0)):
        "fd0b689a904451dccb2edf51a3cbcb9dae48882fa3652e6e0f1a42aafac191ee",
    ("HANDOFF", (3, 12000, 7)):
        "fe6df6667450bad7dc17103ee003b7c2a871d8bf37df64a287f602300f3eba5d",
    ("HANDOFF", (2, 28000, 3)):
        "8187dec8ca3dce4c6f2a6b8741d89e516e03443a80062e5fca4741f46e54ccb1",
    ("SECURE-SERVER", (2, 5000, 0)):
        "3317475074de1d6a4258cd00f10b530a3f814d6d3a5554647c468def3160c8c8",
    ("SECURE-SERVER", (3, 12000, 7)):
        "fc8af6fde525b8b17d1bc24df609be3c105e128744a408db21aa0c5680d6c685",
    ("SECURE-SERVER", (2, 28000, 3)):
        "6e8a87591ac3b03f5caadbaf8cf06cfce61ed5b21c1e55567d1a20ccbba15028",
}


def program_digest(program):
    h = hashlib.sha256()
    for trace in program.threads:
        c = trace.columns
        for col in (c.op, c.dst, c.size, c.src_off, c.src_val):
            h.update(np.ascontiguousarray(col).tobytes())
    for schedule in (program.true_order, program.timesliced_order):
        h.update(b"none" if schedule is None else schedule.tobytes())
    h.update(
        np.array(sorted(program.preallocated), dtype=np.int64).tobytes()
    )
    return h.hexdigest()


def test_every_workload_has_goldens():
    assert {name for name, _ in GOLDEN} == set(WORKLOADS)


@pytest.mark.parametrize(
    "name, shape", sorted(GOLDEN), ids=lambda v: str(v).replace(" ", "")
)
def test_generated_program_matches_its_golden_digest(name, shape):
    threads, events, seed = shape
    program = WORKLOADS[name].generate(threads, events, seed=seed)
    assert program_digest(program) == GOLDEN[name, shape]
