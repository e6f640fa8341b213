"""numpy's `default_rng(seed)`, ported to Python integers for the scalar
`uniform` and `integers` draws the verification checks make.

* Seeding: numpy's `SeedSequence` (the seed split into 32-bit words, least
  significant first, hashed into a 4-word pool, then `generate_state(4,
  uint64)`), and PCG64's `srandom_r` with the state and increment taken
  from those four words, high word first.
* Output: PCG64's 128-bit LCG step and its XSL-RR output (M. E. O'Neill,
  "PCG: A Family of Simple Fast Space-Efficient Statistically Good
  Algorithms for Random Number Generation", 2014).
* `uniform(low, high)`: `low + (high - low) * ((x >> 11) * 2**-53)`.
* `integers(low, high)`: numpy's bounded uint32 draw by D. Lemire's method
  ("Fast Random Integer Generation in an Interval", ACM TOMACS, 2019), with
  its rejection loop.  Its 32-bit words come from `next_uint32`, which
  keeps the upper half of a 64-bit draw for the next call, across any
  `uniform` in between.  A range of one value draws nothing.

Nothing else of numpy's generator is ported: a range of 2**32 or more
values (numpy's 64-bit paths) raises.  The tests pin every draw against
`np.random.default_rng`; this module imports nothing, so a verify run
loads neither `numpy.random` nor, through `secrets` and `hashlib`, OpenSSL.
"""

__all__ = ["default_rng"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645   # PCG_DEFAULT_MULTIPLIER_128

# SeedSequence's hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _seed_words(seed):
    """The four uint64 words of `SeedSequence(seed).generate_state(4,
    np.uint64)`."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    # generate_state(4, uint64): 8 uint32 words, cycling through the pool
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> _XSHIFT)
    # uint32 pairs read as little-endian uint64
    return [state[i] | state[i + 1] << 32 for i in range(0, len(state), 2)]


class Generator:
    """PCG64 seeded as numpy seeds it, with numpy's `next_uint32` buffer."""

    def __init__(self, seed):
        s0, s1, i0, i1 = _seed_words(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = 0
        self._step()
        self._state = (self._state + (s0 << 64 | s1)) & _MASK128
        self._step()
        self._upper = None   # the held upper half of the last 64-bit draw

    def _step(self):
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128

    def _next64(self):
        self._step()
        state = self._state
        rot = state >> 122
        x = (state >> 64 ^ state) & _MASK64
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self):
        if self._upper is not None:
            word, self._upper = self._upper, None
            return word
        x = self._next64()
        self._upper = x >> 32
        return x & _MASK32

    def uniform(self, low=0.0, high=1.0):
        """One float in [low, high), as `Generator.uniform(low, high)`."""
        return low + (high - low) * ((self._next64() >> 11) * (1.0 / 9007199254740992.0))

    def integers(self, low, high):
        """One int in [low, high), as `Generator.integers(low, high)`."""
        if low >= high:
            raise ValueError("low >= high")
        rng = high - low - 1
        if rng >= _MASK32:
            raise ValueError(f"a range of {rng + 1} values needs numpy's 64-bit draw, "
                             "which is not ported")
        if rng == 0:
            return low
        rng_excl = rng + 1
        m = self._next32() * rng_excl
        if m & _MASK32 < rng_excl:
            threshold = (_MASK32 - rng) % rng_excl
            while m & _MASK32 < threshold:
                m = self._next32() * rng_excl
        return low + (m >> 32)


def default_rng(seed):
    """The generator `np.random.default_rng(seed)` gives, for an int seed."""
    return Generator(seed)
