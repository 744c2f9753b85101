"""Validation behavior of the shared parameter and result types."""

import numpy as np
import pytest

from tfqss.core import (
    MAX_INTENSITY,
    Owner,
    ParameterError,
    ProtocolConfig,
    PulseTrain,
    RatePoint,
    SiftedKeys,
    SimulationReport,
    SystemParams,
)


def test_defaults_are_valid():
    p = SystemParams()
    assert p.detector_efficiency == 0.56
    assert p.dark_count_rate == 1e-8
    assert p.attenuation == 0.167
    assert p.ec_efficiency == 1.16
    assert p.misalignment == 0.02
    assert MAX_INTENSITY == 0.5


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(detector_efficiency=0.0), "detector_efficiency"),
    (dict(detector_efficiency=1.5), "detector_efficiency"),
    (dict(dark_count_rate=-1e-9), "dark_count_rate"),
    (dict(dark_count_rate=0.5), "dark_count_rate"),
    (dict(attenuation=0.0), "attenuation"),
    (dict(attenuation=-0.1), "attenuation"),
    (dict(ec_efficiency=0.99), "ec_efficiency"),
    (dict(misalignment=-0.01), "misalignment"),
    (dict(misalignment=0.5), "misalignment"),
    (dict(attenuation=float("inf")), "attenuation"),
    (dict(ec_efficiency=float("inf")), "ec_efficiency"),
])
def test_system_params_rejects_bad_fields(kwargs, fragment):
    with pytest.raises(ParameterError, match=fragment):
        SystemParams(**kwargs)


def test_system_params_boundary_values_allowed():
    SystemParams(detector_efficiency=1.0, dark_count_rate=0.0,
                 ec_efficiency=1.0, misalignment=0.0)


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(intensity=0.0), "intensity"),
    (dict(intensity=0.5), "intensity"),
    (dict(n_pairs=0), "n_pairs"),
    (dict(n_pairs=2.0), "n_pairs"),
    (dict(distance=-1.0), "distance"),
    (dict(rng_seed=-1), "rng_seed"),
    (dict(rng_seed=2**64), "rng_seed"),
    (dict(test_fraction=0.0), "test_fraction"),
    (dict(test_fraction=1.0), "test_fraction"),
    # integers are what operator.index takes, bools excepted
    (dict(n_pairs=np.float64(2.0)), "n_pairs"),
    (dict(n_pairs=np.int64(0)), "n_pairs"),
    (dict(n_pairs=True), "n_pairs"),
    (dict(n_pairs=np.True_), "n_pairs"),
    (dict(rng_seed=np.int64(-1)), "rng_seed"),
    (dict(rng_seed=False), "rng_seed"),
])
def test_protocol_config_rejects_bad_fields(kwargs, fragment):
    with pytest.raises(ParameterError, match=fragment):
        ProtocolConfig(**kwargs)


def test_protocol_config_defaults():
    c = ProtocolConfig()
    assert c.intensity == 0.05
    assert c.n_pairs == 10**6
    assert c.distance == 100.0
    assert c.rng_seed == 1
    assert c.test_fraction == 0.1
    # numpy integers are stored as Python ints
    c = ProtocolConfig(n_pairs=np.int64(1000), rng_seed=np.uint64(2**64 - 1))
    assert type(c.n_pairs) is type(c.rng_seed) is int
    assert (c.n_pairs, c.rng_seed) == (1000, 2**64 - 1)


def test_pulse_train_bits_become_read_only():
    bits = np.array([0, 1, 1, 0], dtype=np.uint8)
    train = PulseTrain.from_bits(owner=Owner.ALICE, bits=bits, intensity=0.1)
    assert len(train) == 4
    with pytest.raises(ValueError):
        train.bits[0] = 1


def test_pulse_train_rejects_non_bits_and_bad_intensity():
    with pytest.raises(ParameterError, match="0/1"):
        PulseTrain.from_bits(owner=Owner.BOB, bits=np.array([0, 2]),
                             intensity=0.1)
    with pytest.raises(ParameterError, match="one-dimensional"):
        PulseTrain.from_bits(owner=Owner.BOB, bits=np.zeros((2, 2)),
                             intensity=0.1)
    with pytest.raises(ParameterError, match="at least one bit"):
        PulseTrain.from_bits(owner=Owner.BOB,
                             bits=np.empty(0, dtype=np.uint8), intensity=0.1)
    with pytest.raises(ParameterError, match="intensity"):
        PulseTrain.from_bits(owner=Owner.BOB, bits=np.array([0, 1]),
                             intensity=0.5)
    # a float, complex or object bit is not cast to 0/1, and a wider
    # integer is not wrapped into a byte
    for bits in ([0.0, 1.7], [1, 0j], np.array([1, 0], dtype=object),
                 [0, 256], [1, -255]):
        with pytest.raises(ParameterError, match="bits"):
            PulseTrain.from_bits(owner=Owner.BOB, bits=bits, intensity=0.1)
    for bits in ([True, False], np.array([1, 0], dtype=np.int16)):
        train = PulseTrain.from_bits(owner=Owner.BOB, bits=bits,
                                     intensity=0.1)
        assert train.bits.tolist() == [1, 0]


def test_sifted_keys_validation():
    keys = SiftedKeys(slots=np.array([2, 5, 8]),
                      a_bits=np.array([0, 1, 1]),
                      b_bits=np.array([1, 1, 0]),
                      c_bits=np.array([1, 0, 1]))
    assert len(keys) == 3
    with pytest.raises(ValueError):
        keys.c_bits[0] = 0
    with pytest.raises(ParameterError, match="equal length"):
        SiftedKeys(slots=np.array([2, 3]), a_bits=np.array([0]),
                   b_bits=np.array([0, 1]), c_bits=np.array([0, 1]))
    with pytest.raises(ParameterError, match="interior"):
        SiftedKeys(slots=np.array([1]), a_bits=np.array([0]),
                   b_bits=np.array([0]), c_bits=np.array([0]))
    # nothing malformed is recast: 2-D or non-integer slots, and bits of
    # a float, complex or object dtype, raise naming the field
    bits = dict(a_bits=[0, 1], b_bits=[1, 1], c_bits=[1, 0])
    for slots in (np.array([[2, 3]]), [2.7, 3.2]):
        with pytest.raises(ParameterError, match="slots"):
            SiftedKeys(slots=slots, **bits)
    for name, bad in (("a_bits", [0, 1.7]), ("b_bits", [1, 1j]),
                      ("c_bits", np.array([1, 0], dtype=object))):
        with pytest.raises(ParameterError, match=name):
            SiftedKeys(slots=[2, 3], **{**bits, name: bad})
    # integer and boolean bits keep working, and so do empty inputs,
    # which numpy reads as float64
    keys = SiftedKeys(slots=[2, 3], a_bits=[True, False],
                      b_bits=np.array([1, 1], dtype=np.int8),
                      c_bits=np.array([1, 0], dtype=np.uint16))
    assert keys.a_bits.tolist() == [1, 0] and keys.slots.tolist() == [2, 3]
    assert len(SiftedKeys(slots=[], a_bits=[], b_bits=[], c_bits=[])) == 0


def test_pulse_train_keeps_its_bits_packed():
    # the caller's array stays writable: the train holds its own packed
    # bytes, most significant bit first, and unpacks them on demand
    bits = np.array([1, 0, 1, 1, 0, 0, 0, 1, 1], dtype=np.uint8)
    train = PulseTrain.from_bits(Owner.ALICE, bits, 0.1)
    bits[0] = 0
    assert train.packed.tolist() == [0b10110001, 0b10000000]
    assert not train.packed.flags.writeable
    assert train.n == len(train) == 9
    assert train.bits.tolist() == [1, 0, 1, 1, 0, 0, 0, 1, 1]
    same = PulseTrain(Owner.ALICE, train.packed, 9, 0.1)
    assert np.array_equal(same.bits, train.bits)
    with pytest.raises(ParameterError, match="ceil"):
        PulseTrain(Owner.ALICE, train.packed, 17, 0.1)
    with pytest.raises(ParameterError, match="at least one bit"):
        PulseTrain(Owner.ALICE, np.empty(0, dtype=np.uint8), 0, 0.1)
    with pytest.raises(ParameterError, match="uint8"):
        PulseTrain(Owner.ALICE, train.packed.astype(np.int64), 9, 0.1)


def test_sifted_keys_freeze_their_views_not_the_callers_arrays():
    # the key takes the caller's arrays uncopied and read-only, and the
    # caller can still write them
    slots = np.array([2, 5, 8], dtype=np.int64)
    a, b, c = (np.array([0, 1, 1], dtype=np.uint8) for _ in range(3))
    keys = SiftedKeys(slots=slots, a_bits=a, b_bits=b, c_bits=c)
    for own, kept in ((slots, keys.slots), (a, keys.a_bits),
                      (b, keys.b_bits), (c, keys.c_bits)):
        assert np.shares_memory(own, kept)
        assert not kept.flags.writeable
        with pytest.raises(ValueError):
            kept[0] = 1
        own[0] = 1
        assert own.flags.writeable and own[0] == 1


def test_rate_point_validation():
    RatePoint(distance=100.0, mu_opt=0.1, gain=0.01, qber=0.02,
              rate=1e-3, plob=1e-2, repeaterless=1e-1, dps_baseline=1e-4)
    with pytest.raises(ParameterError, match="gain"):
        RatePoint(distance=0.0, mu_opt=0.1, gain=1.5, qber=0.0,
                  rate=0.0, plob=0.0, repeaterless=0.0, dps_baseline=0.0)
    with pytest.raises(ParameterError, match="rate"):
        RatePoint(distance=0.0, mu_opt=0.1, gain=0.5, qber=0.0,
                  rate=-1e-9, plob=0.0, repeaterless=0.0, dps_baseline=0.0)
    with pytest.raises(ParameterError, match="qber"):
        RatePoint(distance=0.0, mu_opt=0.1, gain=0.5, qber=1.5,
                  rate=0.0, plob=0.0, repeaterless=0.0, dps_baseline=0.0)


def test_simulation_report_accounting_identity():
    sifted = SiftedKeys(slots=np.array([2, 3]), a_bits=np.array([0, 1]),
                        b_bits=np.array([0, 1]), c_bits=np.array([0, 0]))
    SimulationReport(n_pairs=10, detected_slots=3, empirical_gain=0.2,
                     empirical_qber=0.0, test_slots_consumed=1,
                     sifted=sifted, abort=False)
    with pytest.raises(ParameterError, match="detected_slots"):
        SimulationReport(n_pairs=10, detected_slots=5, empirical_gain=0.2,
                         empirical_qber=0.0, test_slots_consumed=1,
                         sifted=sifted, abort=False)
    with pytest.raises(ParameterError, match="empirical_gain"):
        SimulationReport(n_pairs=10, detected_slots=3, empirical_gain=1.5,
                         empirical_qber=0.0, test_slots_consumed=1,
                         sifted=sifted, abort=False)
    with pytest.raises(ParameterError, match="empirical_qber"):
        SimulationReport(n_pairs=10, detected_slots=3, empirical_gain=0.2,
                         empirical_qber=-0.1, test_slots_consumed=1,
                         sifted=sifted, abort=False)
