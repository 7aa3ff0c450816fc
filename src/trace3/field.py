"""Binary field F_{2^m} with a canonical modulus and subfield machinery.

Field elements are plain ints: bit i is the coefficient of x^i in the
residue of the polynomial basis.  Elements carry no context of their own;
all arithmetic goes through a FieldContext, and values from different
contexts must not be mixed.  Addition is xor, zero is 0, one is 1.
"""

from functools import partial
from operator import index

import numpy as np
from numpy import ndarray

from . import gf2x

MAX_DEGREE = 64
DEFAULT_ENUM_CAP = 26
LOG_MAX_DEGREE = 16  # mul by log/antilog lists up to here, windowed above
MAX_SWEEP_BITS = 32  # widest field of sweeps and of uint64 lane products


def _span(images: list) -> list:
    """Entry a: the image of a under the map sending 1 << i to images[i],
    for every a < 2^len(images)."""
    table = [0]
    for image in images:
        table += [v ^ image for v in table]
    return table


def _byte_tables(images: list) -> list:
    """Byte-sliced table of the map sending 1 << i to images[i]: list j is
    the `_span` of images 8j..8j+7, mapping byte j of an input to its image
    (the last list is shorter when len(images) is not a multiple of 8)."""
    return [_span(images[lo:lo + 8]) for lo in range(0, len(images), 8)]


def _apply(tables: list, a):
    """The image of a under a map given by `_byte_tables`: of an int, or of
    each lane of a uint64 array when the tables are numpy arrays."""
    r = 0
    for table in tables:
        r ^= table[a & 0xFF]
        a = a >> 8
    return r


def _widened(lanes: ndarray, *operands):
    """lanes, as uint64 if an operand is a uint64 array: a sweep's lanes
    stay uint64, as its map may shift a product past m bits."""
    if any(type(a) is ndarray and a.dtype == np.uint64 for a in operands):
        return lanes.astype(np.uint64)
    return lanes


def kernel_basis(images: list) -> tuple:
    """(kernel, complement) of the map sending 1 << i to images[i], by
    bit-packed elimination in the order of i: kernel is an ascending reduced
    echelon basis of the null space (each leading bit is clear in the other
    vectors); complement holds each 1 << i whose image is independent of
    the images before it, so their images form a basis of the image."""
    pivots = {}  # leading bit -> (reduced image, its preimage)
    kernel, complement = [], []
    for i, image in enumerate(images):
        pre = 1 << i
        while image:
            b = image.bit_length() - 1
            if b not in pivots:
                pivots[b] = (image, pre)
                complement.append(1 << i)
                break
            pivot_image, pivot_pre = pivots[b]
            image ^= pivot_image
            pre ^= pivot_pre
        else:
            for k in kernel:  # i tops every earlier leading bit: reduce pre
                pre = min(pre, pre ^ k)
            kernel.append(pre)
    return kernel, complement


class BudgetError(ValueError):
    """An exhaustive sweep was requested beyond the configured bit budget."""


class FieldContext:
    """Arithmetic context for F_{2^m} under the canonical degree-m modulus.

    Every operation runs on tables that depend only on m (and on k for
    Frobenius^k, on r for the trace to F_{2^r}), never on the operands.
    There are four kernels:

    - GF(2)-linear maps (squaring, Frobenius^k, relative traces, the
      absolute one as the trace to F_2, the trace dual) are byte-sliced
      tables (`_byte_tables`), so a map costs one lookup per byte.  The
      squaring table is built with the context; the others on first use.
      A new Frobenius^k is composed from Frobenius^(k - k//2) and
      Frobenius^(k//2), built the same way, so it costs O(m log k) lookups.
    - For m <= LOG_MAX_DEGREE, `mul` adds discrete logarithms to the base
      of the smallest primitive element.  The log and antilog lists are
      built on the first `mul`.
    - For larger m, `mul` forms the carry-less product with a 4-bit window
      over b against the 16 multiples of a, then reduces the high half
      8 bits at a time with a table of the multiples of the modulus by
      t * x^m, t < 256, built on the first `mul`.
    - Lanes: `mul`, `sqr`, `frobenius`, the traces and `subfield_element`
      also take numpy arrays (one operand of `mul` may be an int).  Lane
      products and squares take their kernel by m alone, as ints do (see
      `times`, which prepares one operand for many), and give `lane_dtype`:
      one or two bytes up to LOG_MAX_DEGREE (uint64 for a uint64 operand,
      `_widened`), uint64 up to MAX_SWEEP_BITS, and object arrays of ints
      above, where a uint64 array raises ValueError.  A linear map indexes
      uint64 copies of its byte tables (`_linear`), made on first use, up
      to MAX_SWEEP_BITS.  Lanes stay unsigned: numpy 1.x turns a mix of
      uint64 and int64 into float64.

    The subfield F_{2^r} is r ints, the reduced echelon basis of the kernel
    of a -> a^(2^r) + a by `kernel_basis` (the elimination that also gives
    the radicals in `quadforms`), applied through its byte tables; the
    embedding sends the canonical generator of F_{2^r} to the smallest root
    of the degree-r canonical modulus and keeps byte tables of its powers.

    A lazily built table is None until its `_build_` method stores it
    complete, so concurrent callers can at worst build the same table twice.
    """

    def __init__(self, m: int):
        if not 1 <= m <= MAX_DEGREE:
            raise ValueError(f"degree {m} out of range 1..{MAX_DEGREE}")
        self.m = m
        self.order = 1 << m
        self.lane_dtype = np.dtype(
            np.min_scalar_type(self.order - 1) if m <= LOG_MAX_DEGREE
            else np.uint64 if m <= MAX_SWEEP_BITS else object)
        self.modulus = gf2x.canonical_modulus(m)
        self._sqr = _byte_tables([gf2x.mod(1 << (2 * i), self.modulus)
                                  for i in range(m)])
        self._frobenius = {1: self._sqr}  # k -> tables of a -> a^(2^k)
        self._trace = {}                  # r -> tables of Tr_{m/r}
        self._trace_dual = None           # tables of c -> (Tr(c x^j))_j
        self._exp_log = None              # (antilog, log), m <= LOG_MAX_DEGREE
        self._reduce = None               # reduction table (list, uint64 array)
        self._lane_maps = {}              # id(tables) -> (tables, numpy copies)
        self._lanes = None                # numpy (exp, log, sqr) arrays
        self._subfields = {}              # r -> (subfield_basis(r), its tables)
        self._embeddings = {}             # r -> tables of embed_subfield(r)
        # high-half bytes of a product of degree <= 2m - 2, top one first
        self._reduce_shifts = tuple(range(8 * ((m - 2) // 8), -1, -8))

    def __repr__(self):
        return f"FieldContext(m={self.m}, modulus={self.modulus:#x})"

    def __eq__(self, other):
        return isinstance(other, FieldContext) and other.m == self.m

    def __hash__(self):
        return hash(("FieldContext", self.m))

    def mul(self, a, b):
        if type(a) is not int or type(b) is not int:
            if type(a) is ndarray or type(b) is ndarray:
                return self.times(a)(b)
            a, b = index(a), index(b)  # numpy integers as ints: no overflow
        if not (a and b):
            return 0
        if self.m > LOG_MAX_DEGREE:
            return self._mul_window(a, b)
        exp, log = self._exp_log or self._build_exp_log()
        return exp[log[a] + log[b]]

    def times(self, b):
        """a -> a * b, entrywise and broadcast, for arrays of elements or
        ints on either side, b prepared once for many a.  Up to
        LOG_MAX_DEGREE a gather through numpy copies of the log and antilog
        lists, log b taken here; up to MAX_SWEEP_BITS the windowed product
        on uint64 lanes, b's 16 multiples built here; above, the int kernel
        on object lanes."""
        if self.m <= LOG_MAX_DEGREE:
            exp, log, _ = self._lanes or self._build_lanes()
            log_b = log[b]
            return lambda a: _widened(exp[log[a] + log_b], a, b)
        if self.m <= MAX_SWEEP_BITS:
            return self._times_window(b)
        return partial(self._on_objects, self.mul, b)

    def _times_window(self, b):
        """`times` by `_mul_window` on uint64 lanes: b's multiples by
        t < 16 are one flat array of 16 planes, each of b's shape, so the
        multiple of an entry is read at index t * b.size + its position;
        m <= MAX_SWEEP_BITS."""
        b = np.asarray(b, dtype=np.uint64)
        multiples = np.zeros((16,) + b.shape, dtype=np.uint64)
        for i in range(4):  # plane t: the carry-less product of b and t
            multiples[1 << i:2 << i] = multiples[:1 << i] ^ b << i
        multiples, size = multiples.ravel(), b.size
        rows = np.arange(size).reshape(b.shape)
        reduce = (self._reduce or self._build_reduce())[1]
        m = self.m

        def times_b(a):
            a = np.asarray(a, dtype=np.intp)  # gather indices; a < 2^32
            r = np.take(multiples, rows + (a & 15) * size)
            for shift in range(4, m, 4):
                at = rows + (a >> shift & 15) * size
                r ^= np.take(multiples, at) << shift
            for shift in self._reduce_shifts:  # as in `_mul_window`
                r ^= reduce[r >> (m + shift)] << shift
            return r
        return times_b

    def _mul_window(self, a: int, b: int) -> int:
        a2 = a << 1
        a3 = a2 ^ a
        a4 = a << 2
        a8 = a << 3
        a12 = a8 ^ a4
        multiples = (0, a, a2, a3, a4, a4 ^ a, a4 ^ a2, a4 ^ a3,
                     a8, a8 ^ a, a8 ^ a2, a8 ^ a3,
                     a12, a12 ^ a, a12 ^ a2, a12 ^ a3)
        r = 0
        shift = 0
        while b:
            r ^= multiples[b & 15] << shift
            b >>= 4
            shift += 4
        reduce = (self._reduce or self._build_reduce())[0]
        m = self.m
        for shift in self._reduce_shifts:
            # higher bytes are already clear, so r >> (m + shift) < 256
            r ^= reduce[r >> (m + shift)] << shift
        return r

    def _build_reduce(self) -> tuple:
        """Entry t: the multiple of the modulus whose bits from x^m up are t;
        as a list and, for uint64 lanes (m <= MAX_SWEEP_BITS), an array."""
        m, f = self.m, self.modulus
        table = _span(
            [(1 << (m + i)) ^ gf2x.mod(1 << (m + i), f) for i in range(8)])
        lanes = None if m > MAX_SWEEP_BITS else np.array(table, np.uint64)
        self._reduce = tables = (table, lanes)
        return tables

    def _build_exp_log(self) -> tuple:
        """The antilog (twice over, so that log sums need no reduction) and
        log lists of the lane tables, for ints."""
        exp, log, _ = self._lanes or self._build_lanes()
        antilog = exp[:self.order - 1].tolist()  # one int object per element
        self._exp_log = tables = (antilog + antilog, log.tolist())
        return tables

    def _build_lanes(self) -> tuple:
        """numpy (exp, log, sqr) for m <= LOG_MAX_DEGREE, log int32 and the
        others of `lane_dtype`: exp[log[a] + log[b]] == a * b for all a, b,
        zero included, and sqr[a] == a * a.  exp is the antilog list to the
        base of the smallest primitive element g, twice over, then zeros;
        log[0] points past the antilog lists, so a sum with it lands in the
        zeros.  g comes from `primitive_powers`."""
        size = self.order - 1
        exp = np.zeros(4 * size + 1, dtype=self.lane_dtype)
        exp[:size] = self.primitive_powers(range(1, self.order), size)
        exp[size:2 * size] = exp[:size]
        log = np.empty(self.order, dtype=np.int32)
        log[exp[:size]] = np.arange(size)
        log[0] = 2 * size
        self._lanes = tables = (exp, log, exp[2 * log])  # a^2 = g^(2 log a)
        return tables

    def primitive_powers(self, candidates, size: int) -> ndarray:
        """g^0..g^(size-1) on uint64 lanes, m <= MAX_SWEEP_BITS, for the first
        int g of candidates whose powers do not return to 1 early: with size
        the order of a cyclic group holding them, its first generator."""
        for g in candidates:
            powers, step = np.ones(1, dtype=np.uint64), g
            while powers.size < size:  # g^i for i < 2^k, step = g^(2^k)
                powers = np.concatenate(
                    [powers, self._times_window(step)(powers)])
                step = self._mul_window(step, step)
            if not (powers[1:size] == 1).any():
                return powers[:size]
        raise ValueError("no candidate has order size")

    def sqr(self, a):
        """a * a, of an int or entrywise of an array by the rule of `times`:
        a gather, the linear map on uint64 lanes, or object lanes."""
        if type(a) is not ndarray or LOG_MAX_DEGREE < self.m <= MAX_SWEEP_BITS:
            return self._linear(self._sqr, a)
        if self.m <= LOG_MAX_DEGREE:
            return _widened((self._lanes or self._build_lanes())[2][a], a)
        return self._on_objects(self.sqr, a)

    def _on_objects(self, kernel, *lanes):
        """The int kernel entrywise on object lanes (or ints), for m above
        MAX_SWEEP_BITS, where a product of two elements overflows uint64."""
        if any(type(a) is ndarray and a.dtype != object for a in lanes):
            raise ValueError(f"lane products need m <= {MAX_SWEEP_BITS}, "
                             f"m = {self.m}")
        return np.frompyfunc(kernel, len(lanes), 1)(*lanes)

    def _linear(self, tables: list, a):
        """The image of a under the map of byte tables `tables`: of an int,
        or of each lane of a uint64 array through uint64 numpy copies of
        the tables, made on first use, m <= MAX_SWEEP_BITS."""
        if type(a) is not ndarray:
            return _apply(tables, a)
        entry = self._lane_maps.get(id(tables))
        if entry is None:
            if self.m > MAX_SWEEP_BITS:
                raise ValueError(f"lane maps need m <= {MAX_SWEEP_BITS}, "
                                 f"m = {self.m}")
            # kept with its copies, the list keeps its id
            entry = self._lane_maps[id(tables)] = (
                tables, [np.array(t, dtype=np.uint64) for t in tables])
        return _apply(entry[1], a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            e >>= 1
            a = self.sqr(a)
        return r

    def frobenius(self, a, k: int):
        """a^(2^k), with k reduced modulo m."""
        k %= self.m
        if not k:
            return a
        return self._linear(
            self._frobenius.get(k) or self._frobenius_tables(k), a)

    def _frobenius_tables(self, k: int) -> list:
        """Tables of a -> a^(2^k), 0 < k < m: Frobenius^(k - k//2), then
        Frobenius^(k//2), each built the same way first if new."""
        tables = self._frobenius.get(k)
        if tables is None:
            first = self._frobenius_tables(k - k // 2)
            second = self._frobenius_tables(k // 2)
            tables = self._frobenius[k] = _byte_tables(
                [_apply(second, _apply(first, 1 << i)) for i in range(self.m)])
        return tables

    def _trace_images(self, r: int) -> list:
        """Tr_{m/r}(x^i) for i < m; requires r | m.  S_k = sum of F^(rj), j < k,
        F the Frobenius, grows along the bits of m/r by S_(a+b) = S_a + F^(ra) S_b."""
        images = basis = [1 << i for i in range(self.m)]  # S_1
        k = 1
        for bit in bin(self.m // r)[3:]:
            images, k = [s ^ self.frobenius(s, r * k) for s in images], 2 * k
            if bit == "1":
                images = [s ^ self.frobenius(x, r * k)
                          for s, x in zip(images, basis)]
                k += 1
        return images

    def absolute_trace(self, a):
        """Trace to GF(2), in {0, 1}: the relative trace to F_2."""
        return self.relative_trace(a, 1)

    def relative_trace(self, a, r: int):
        """Trace to F_{2^r} (r | m) of an int or each lane of a uint64 array."""
        tables = self._trace.get(r)
        if tables is None:
            self._check_divisor(r)
            tables = self._trace[r] = _byte_tables(self._trace_images(r))
        return self._linear(tables, a)

    def _check_divisor(self, r: int):
        if r < 1 or self.m % r:
            raise ValueError(f"need r >= 1 dividing {self.m}, got r = {r}")

    def trace_dual(self, c: int) -> int:
        """Bit j is Tr(c x^j): GF(2)-linear in c and Hankel (Tr(x^i x^j)
        depends on i + j), built on first use from Tr(x^k), k < 2m - 1."""
        return _apply(self._trace_dual or self._build_trace_dual(), c)

    def _build_trace_dual(self) -> list:
        hankel = sum(self.absolute_trace(gf2x.mod(1 << k, self.modulus)) << k
                     for k in range(2 * self.m - 1))
        self._trace_dual = tables = _byte_tables(
            [hankel >> i & self.order - 1 for i in range(self.m)])
        return tables

    def subfield_basis(self, r: int) -> tuple:
        """The kernel of a -> a^(2^r) + a by `kernel_basis`, reduced and
        ascending: the element of code c, the xor of basis[j] over the bits
        j of c, increases with c."""
        return self._subfield(r)[0]

    def _subfield(self, r: int) -> tuple:
        """(subfield_basis(r), its byte tables, the byte tables of the map
        taking the bits of v at the leading bits of the basis to the low
        bits, v's code if v is in the subfield)."""
        entry = self._subfields.get(r)
        if entry is None:
            self._check_divisor(r)
            kernel, _ = kernel_basis([self.frobenius(1 << i, r) ^ 1 << i
                                      for i in range(self.m)])
            assert len(kernel) == r, (self.m, r, len(kernel))
            lead = {b.bit_length() - 1: 1 << j for j, b in enumerate(kernel)}
            entry = self._subfields[r] = (
                tuple(kernel), _byte_tables(kernel),
                _byte_tables([lead.get(i, 0) for i in range(self.m)]))
        return entry

    def subfield_element(self, r: int, c):
        """The element of code c in F_{2^r} (`subfield_basis`), for an int c
        or each lane of a uint64 array."""
        return self._linear(self._subfield(r)[1], c)

    def subfield_elements(self, r: int) -> list:
        """All 2^r elements of F_{2^r} inside this field, ascending: entry
        c is the element of code c (`subfield_basis`)."""
        return _span(self.subfield_basis(r))

    def subfield_code(self, r: int):
        """v -> code of v (its index in `subfield_elements(r)`): the bits of
        v at the leading bits of `subfield_basis(r)`, a GF(2)-linear map
        applied through its byte tables, of an int or of each lane of a
        uint64 array; AssertionError for v outside F_{2^r}."""
        _, element, extract = self._subfield(r)

        def code(v):
            c = self._linear(extract, v)
            off = self._linear(element, c) ^ v  # nonzero off the subfield
            # an int skips numpy: a census lookup packs a key per call
            if (bool if type(off) is int else np.count_nonzero)(off):
                raise AssertionError("swept values left the subfield")
            return c
        return code

    def embed_subfield(self, r: int):
        """Embedding F_{2^r} -> F_{2^m}: a -> the image of the element of
        the canonical F_{2^r} with bit pattern a, a < 2^r.

        The canonical generator of F_{2^r} is sent to the smallest root of
        the degree-r canonical modulus inside this field: the first root,
        by Horner, over the elements of codes 0, 1, 2, ... (ascending).
        For r = m that root is x and the map is the identity.  Kept as the
        byte tables of the root's first r powers."""
        tables = self._embeddings.get(r)
        if tables is None:
            small_mod = gf2x.canonical_modulus(r)
            for root in map(partial(_apply, self._subfield(r)[1]),
                            range(1 << r)):
                value = 1
                for i in range(r - 1, -1, -1):
                    value = self.mul(value, root) ^ (small_mod >> i & 1)
                if not value:
                    break
            assert not value, (self.m, r)
            tables = self._embeddings[r] = _byte_tables(
                [self.pow(root, i) for i in range(r)])
        return partial(_apply, tables)


_CTX_CACHE = {}


def build_context(m: int) -> FieldContext:
    """Shared, immutable context for F_{2^m} (deterministic across runs)."""
    if m not in _CTX_CACHE:
        _CTX_CACHE[m] = FieldContext(m)
    return _CTX_CACHE[m]
