//! The training kernels, each compiled twice from one body.
//!
//! Every kernel body is portable Rust with no intrinsics. [`kernels!`]
//! compiles it once for the baseline target (SSE2 on x86-64) and once
//! inside a `#[target_feature(enable = "avx2")]` wrapper, into which the
//! `#[inline(always)]` body and its helpers are inlined and vectorized
//! four `f64` wide. The dispatching entry point picks the AVX2 build
//! when the running CPU has it.
//!
//! Both builds give the same bits. Each output element keeps its start
//! value and its order of adds, and the only float operations are IEEE
//! `+`, `*`, `max` and compares, which give the same result at every
//! vector width. Rust never contracts `a * b + c` into a fused
//! multiply-add, and only `avx2` is enabled, not `fma`. The `tests`
//! module runs both builds of every kernel on the same inputs and
//! compares `to_bits`.

/// Output columns per register tile of the dense products.
const TILE: usize = 8;
/// Output rows per register block of the dense products.
const BLOCK: usize = 4;
/// Input rows per chunk of [`transpose_rows`]: a chunk of both operands
/// stays in cache while every output block walks it.
const CHUNK: usize = 64;

/// `true` if the running CPU has AVX2 (std caches the detection).
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_avx2() -> bool {
    is_x86_feature_detected!("avx2")
}

/// Defines each kernel as a dispatching function plus a module of the
/// same name holding its two builds, `portable` and `avx2`.
macro_rules! kernels {
    ($(
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block
    )*) => {$(
        $(#[$attr])*
        pub(crate) fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            if has_avx2() {
                // SAFETY: the CPU supports AVX2, the wrapper's only
                // requirement.
                return unsafe { $name::avx2($($arg),*) };
            }
            $name::portable($($arg),*)
        }

        pub(crate) mod $name {
            #[allow(unused_imports)]
            use super::*;

            /// The kernel body, compiled for the baseline target where
            /// it is inlined.
            #[inline(always)]
            pub(crate) fn portable($($arg: $ty),*) $body

            /// The kernel body compiled with AVX2 enabled.
            ///
            /// # Safety
            ///
            /// The running CPU must support AVX2.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            pub(crate) unsafe fn avx2($($arg: $ty),*) {
                portable($($arg),*)
            }
        }
    )*};
}

kernels! {
    /// `out = start + a × b` for row-major `a` (`inner` wide) and `b`
    /// (`width` wide): the body of `H·W` and `G·Wᵀ`. Every output element
    /// starts at `start` and adds `a[i,k]·b[k,j]` for ascending `k`.
    /// Rows are taken [`BLOCK`] at a time and columns [`TILE`] at a
    /// time, so `BLOCK × TILE` running sums stay in registers and form
    /// `BLOCK` independent chains of adds per `k`. Heads (width ≤ 2) and
    /// the last `rows mod BLOCK` rows run one row at a time.
    fn dense_rows(a: &[f64], inner: usize, b: &[f64], width: usize, start: f64, out: &mut [f64]) {
        if width == 0 {
            return;
        }
        let rows = out.len() / width;
        let blocked = if width > 2 { rows / BLOCK * BLOCK } else { 0 };
        let full = width / TILE * TILE;
        let (head, tail) = out.split_at_mut(blocked * width);
        for (block, oblock) in head.chunks_exact_mut(BLOCK * width).enumerate() {
            let x = &a[block * BLOCK * inner..(block + 1) * BLOCK * inner];
            for col in (0..full).step_by(TILE) {
                let acc = block_tile(x, inner, b, width, col, start);
                for (orow, sums) in oblock.chunks_exact_mut(width).zip(&acc) {
                    orow[col..col + TILE].copy_from_slice(sums);
                }
            }
            if full < width {
                for (r, orow) in oblock.chunks_exact_mut(width).enumerate() {
                    let x = &x[r * inner..(r + 1) * inner];
                    row_tiles(x, b, width, full, start, &mut orow[full..]);
                }
            }
        }
        for (i, orow) in tail.chunks_exact_mut(width).enumerate() {
            let r = blocked + i;
            row_tiles(&a[r * inner..(r + 1) * inner], b, width, 0, start, orow);
        }
    }

    /// `out = aᵀ × b` for row-major `a` (`acols` wide) and `b` (`bcols`
    /// wide) with the same row count: the body of `Hᵀ·G`. Output element
    /// `(i, j)` starts at `+0.0` and adds `a[r,i]·b[r,j]` for ascending
    /// `r`. Rows are walked [`CHUNK`] at a time, and within a chunk each
    /// register block of the output stays in registers across the
    /// chunk's rows: `BLOCK × TILE` (`i × j`) blocks in general, and
    /// `TILE × bcols` blocks for the heads (`bcols` ≤ 2), whose rows of
    /// `a` give the vectors. Elements outside the blocks are scattered
    /// row by row.
    fn transpose_rows(a: &[f64], acols: usize, b: &[f64], bcols: usize, out: &mut [f64]) {
        out.fill(0.0);
        if acols == 0 || bcols == 0 {
            return;
        }
        // Rows of `out` whose blocks cover columns `..full`.
        let (blocked, full) = match bcols {
            1 | 2 => (acols / TILE * TILE, bcols),
            _ => (acols / BLOCK * BLOCK, bcols / TILE * TILE),
        };
        let chunks = a.chunks(CHUNK * acols).zip(b.chunks(CHUNK * bcols));
        for (achunk, bchunk) in chunks {
            match bcols {
                1 => head_blocks::<1>(achunk, acols, bchunk, blocked, out),
                2 => head_blocks::<2>(achunk, acols, bchunk, blocked, out),
                _ => wide_blocks(achunk, acols, bchunk, bcols, blocked, full, out),
            }
            let rows = achunk.chunks_exact(acols).zip(bchunk.chunks_exact(bcols));
            for (arow, brow) in rows {
                for (i, (&y, orow)) in arow.iter().zip(out.chunks_exact_mut(bcols)).enumerate() {
                    let from = if i < blocked { full } else { 0 };
                    for (o, &z) in orow[from..].iter_mut().zip(&brow[from..]) {
                        *o += y * z;
                    }
                }
            }
        }
    }

    /// `out = S × src` for the CSR matrix `S` (`row_ptr`, `col_idx`,
    /// `values`) and a row-major `src` (`width` wide), one output row per
    /// CSR row.
    fn spmm(
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[f64],
        src: &[f64],
        width: usize,
        out: &mut [f64],
    ) {
        if width == 0 {
            return;
        }
        for (r, dst) in out.chunks_exact_mut(width).enumerate() {
            let entries = row_ptr[r]..row_ptr[r + 1];
            spmm_row(&col_idx[entries.clone()], &values[entries], src, width, dst);
        }
    }

    /// Rows `rows` of `S × src`: output row `k` is CSR row `rows[k]`,
    /// computed exactly as [`spmm`] computes it.
    fn spmm_rows(
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[f64],
        src: &[f64],
        width: usize,
        rows: &[usize],
        out: &mut [f64],
    ) {
        if width == 0 {
            return;
        }
        for (&r, dst) in rows.iter().zip(out.chunks_exact_mut(width)) {
            let entries = row_ptr[r]..row_ptr[r + 1];
            spmm_row(&col_idx[entries.clone()], &values[entries], src, width, dst);
        }
    }

    /// A hidden layer's bias and ReLU: `v ← max(v + b, 0)` for each row
    /// of `out` (`bias.len()` wide).
    fn bias_relu(out: &mut [f64], bias: &[f64]) {
        if bias.is_empty() {
            return;
        }
        for row in out.chunks_exact_mut(bias.len()) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v = (*v + b).max(0.0);
            }
        }
    }

    /// [`bias_relu`] that also records the ReLU mask `v + b > 0` in
    /// `keep` (one flag per element of `out`).
    fn bias_relu_mask(out: &mut [f64], bias: &[f64], keep: &mut [bool]) {
        if bias.is_empty() {
            return;
        }
        let rows = out.chunks_exact_mut(bias.len());
        for (row, kept) in rows.zip(keep.chunks_exact_mut(bias.len())) {
            for ((v, k), &b) in row.iter_mut().zip(kept).zip(bias) {
                let y = *v + b;
                *k = y > 0.0;
                *v = y.max(0.0);
            }
        }
    }

    /// ReLU backward: zeroes the gradient wherever the forward ReLU
    /// dropped its input.
    fn relu_backward(grad: &mut [f64], keep: &[bool]) {
        for (g, &kept) in grad.iter_mut().zip(keep) {
            *g = if kept { *g } else { 0.0 };
        }
    }

    /// Dropout forward: turns each uniform draw `m` into the mask value
    /// `scale` if `m < keep`, else `0.0`, and scales `values` by it.
    fn dropout_forward(values: &mut [f64], mask: &mut [f64], keep: f64, scale: f64) {
        for (v, m) in values.iter_mut().zip(mask) {
            *m = if *m < keep { scale } else { 0.0 };
            *v *= *m;
        }
    }

    /// Elementwise `v ← v·m`: dropout backward.
    fn scale_by(values: &mut [f64], mask: &[f64]) {
        for (v, &m) in values.iter_mut().zip(mask) {
            *v *= m;
        }
    }

    /// Column sums of a row-major matrix `width` wide, added to `sums`
    /// row by row in ascending order.
    fn column_sums(data: &[f64], width: usize, sums: &mut [f64]) {
        if width == 0 {
            return;
        }
        for row in data.chunks_exact(width) {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
    }
}

/// `start + Σ_k x_r[k]·b[k, col..col + TILE]` for ascending `k`, for the
/// [`BLOCK`] rows `x_r` of `x` (each `inner` wide).
#[inline(always)]
fn block_tile(
    x: &[f64],
    inner: usize,
    b: &[f64],
    width: usize,
    col: usize,
    start: f64,
) -> [[f64; TILE]; BLOCK] {
    let mut acc = [[start; TILE]; BLOCK];
    let (x0, rest) = x.split_at(inner);
    let (x1, rest) = rest.split_at(inner);
    let (x2, x3) = rest.split_at(inner);
    let ys = x0.iter().zip(x1).zip(x2).zip(&x3[..inner]);
    for (k, (((&y0, &y1), &y2), &y3)) in ys.enumerate() {
        let row = k * width + col;
        let zs: &[f64; TILE] = b[row..row + TILE].try_into().expect("tile within the row");
        for (sums, y) in acc.iter_mut().zip([y0, y1, y2, y3]) {
            for (s, &z) in sums.iter_mut().zip(zs) {
                *s += y * z;
            }
        }
    }
    acc
}

/// The `BLOCK × TILE` register blocks of one chunk of
/// [`transpose_rows`], over output rows `..blocked` and columns `..full`.
#[inline(always)]
fn wide_blocks(
    a: &[f64],
    acols: usize,
    b: &[f64],
    bcols: usize,
    blocked: usize,
    full: usize,
    out: &mut [f64],
) {
    for i0 in (0..blocked).step_by(BLOCK) {
        let oblock = &mut out[i0 * bcols..(i0 + BLOCK) * bcols];
        for j0 in (0..full).step_by(TILE) {
            let mut acc = [[0.0; TILE]; BLOCK];
            for (sums, orow) in acc.iter_mut().zip(oblock.chunks_exact(bcols)) {
                sums.copy_from_slice(&orow[j0..j0 + TILE]);
            }
            for (arow, brow) in a.chunks_exact(acols).zip(b.chunks_exact(bcols)) {
                let ys: &[f64; BLOCK] = arow[i0..i0 + BLOCK].try_into().expect("block in the row");
                let zs: &[f64; TILE] = brow[j0..j0 + TILE].try_into().expect("tile in the row");
                for (sums, &y) in acc.iter_mut().zip(ys) {
                    for (s, &z) in sums.iter_mut().zip(zs) {
                        *s += y * z;
                    }
                }
            }
            for (sums, orow) in acc.iter().zip(oblock.chunks_exact_mut(bcols)) {
                orow[j0..j0 + TILE].copy_from_slice(sums);
            }
        }
    }
}

/// The `TILE × J` register blocks of one chunk of [`transpose_rows`] for
/// a head, `b` being `J` wide, over output rows `..blocked`.
#[inline(always)]
fn head_blocks<const J: usize>(
    a: &[f64],
    acols: usize,
    b: &[f64],
    blocked: usize,
    out: &mut [f64],
) {
    for i0 in (0..blocked).step_by(TILE) {
        let oblock = &mut out[i0 * J..(i0 + TILE) * J];
        // acc[j][t] is output element (i0 + t, j).
        let mut acc = [[0.0; TILE]; J];
        for (t, orow) in oblock.chunks_exact(J).enumerate() {
            for (sums, &o) in acc.iter_mut().zip(orow) {
                sums[t] = o;
            }
        }
        for (arow, brow) in a.chunks_exact(acols).zip(b.chunks_exact(J)) {
            let ys: &[f64; TILE] = arow[i0..i0 + TILE].try_into().expect("tile in the row");
            for (sums, &z) in acc.iter_mut().zip(brow) {
                for (s, &y) in sums.iter_mut().zip(ys) {
                    *s += y * z;
                }
            }
        }
        for (t, orow) in oblock.chunks_exact_mut(J).enumerate() {
            for (o, sums) in orow.iter_mut().zip(&acc) {
                *o = sums[t];
            }
        }
    }
}

/// One row of [`dense_rows`] from column `col0` on: `orow` holds
/// columns `col0..width`, taken [`TILE`] at a time (or 1–2 for the model
/// heads) so the running sums stay in registers.
#[inline(always)]
fn row_tiles(x: &[f64], b: &[f64], width: usize, col0: usize, start: f64, orow: &mut [f64]) {
    for (t, chunk) in orow.chunks_mut(TILE).enumerate() {
        let col = col0 + t * TILE;
        match chunk.len() {
            TILE => chunk.copy_from_slice(&dot_tile::<TILE>(x, b, width, col, start)),
            1 => chunk.copy_from_slice(&dot_tile::<1>(x, b, width, col, start)),
            2 => chunk.copy_from_slice(&dot_tile::<2>(x, b, width, col, start)),
            len => {
                chunk.fill(start);
                for (k, &y) in x.iter().enumerate() {
                    let row = k * width + col;
                    for (s, &z) in chunk.iter_mut().zip(&b[row..row + len]) {
                        *s += y * z;
                    }
                }
            }
        }
    }
}

/// `start + Σ_k x[k]·b[k, col..col + T]` for ascending `k`.
#[inline(always)]
fn dot_tile<const T: usize>(
    x: &[f64],
    b: &[f64],
    width: usize,
    col: usize,
    start: f64,
) -> [f64; T] {
    let mut acc = [start; T];
    for (k, &a) in x.iter().enumerate() {
        let row = k * width + col;
        let brow: &[f64; T] = b[row..row + T].try_into().expect("tile within the row");
        for (s, &y) in acc.iter_mut().zip(brow) {
            *s += a * y;
        }
    }
    acc
}

/// One output row of a sparse product: `dst` starts at `+0.0` and adds
/// `value·src[col,:]` over the row's entries in CSR order, [`TILE`]
/// columns at a time so the running sums stay in registers.
#[inline(always)]
fn spmm_row(cols: &[usize], values: &[f64], src: &[f64], width: usize, dst: &mut [f64]) {
    let mut tiles = dst.chunks_exact_mut(TILE);
    for (t, tile) in tiles.by_ref().enumerate() {
        let mut acc = [0.0; TILE];
        for (&c, &v) in cols.iter().zip(values) {
            let at = c * width + t * TILE;
            let row: &[f64; TILE] = src[at..at + TILE].try_into().expect("tile within the row");
            for (a, &x) in acc.iter_mut().zip(row) {
                *a += v * x;
            }
        }
        tile.copy_from_slice(&acc);
    }
    let rest = tiles.into_remainder();
    let len = rest.len();
    rest.fill(0.0);
    for (&c, &v) in cols.iter().zip(values) {
        let at = (c + 1) * width - len;
        for (d, &x) in rest.iter_mut().zip(&src[at..at + len]) {
            *d += v * x;
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    //! Both builds of every kernel on the same inputs, compared bit for
    //! bit. The shapes cover every row remainder of [`BLOCK`], widths
    //! around the [`TILE`] size and the heads, all-zero rows and `-0.0`.
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// Widths that hit the heads, every tile remainder class and the
    /// Table-1 layer widths.
    const WIDTHS: [usize; 8] = [1, 2, 3, 7, 8, 9, 16, 64];

    /// A random operand: finite values with exact `0.0`/`-0.0` entries
    /// and all-zero rows mixed in.
    fn operand(rows: usize, cols: usize, seed: u64) -> Vec<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let zeros = rng.gen_range(0.0..0.6);
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows {
            let zero_row = rng.gen_bool(0.2);
            for _ in 0..cols {
                data.push(if zero_row || rng.gen_bool(zeros) {
                    if rng.gen_bool(0.5) {
                        0.0
                    } else {
                        -0.0
                    }
                } else {
                    rng.gen_range(-2.0..2.0)
                });
            }
        }
        data
    }

    /// A random CSR pattern with `rows` rows over `cols` columns: some
    /// rows empty, some values `-0.0`.
    fn csr(rows: usize, cols: usize, seed: u64) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5A5A);
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for _ in 0..rows {
            if cols > 0 && !rng.gen_bool(0.2) {
                let mut picked: Vec<usize> = (0..rng.gen_range(0..=6))
                    .map(|_| rng.gen_range(0..cols))
                    .collect();
                picked.sort_unstable();
                picked.dedup();
                for c in picked {
                    col_idx.push(c);
                    values.push(if rng.gen_bool(0.2) {
                        -0.0
                    } else {
                        rng.gen_range(-1.0..1.0)
                    });
                }
            }
            row_ptr.push(col_idx.len());
        }
        (row_ptr, col_idx, values)
    }

    fn assert_bits(portable: &[f64], avx2: &[f64], what: &str) {
        assert_eq!(portable.len(), avx2.len(), "{what}: length");
        for (i, (p, v)) in portable.iter().zip(avx2).enumerate() {
            assert_eq!(
                p.to_bits(),
                v.to_bits(),
                "{what}, element {i}: {p:?} vs {v:?}"
            );
        }
    }

    /// The AVX2 builds can only run where the CPU has AVX2.
    fn skip() -> bool {
        if !has_avx2() {
            eprintln!("no AVX2 on this CPU: only the portable build can run");
        }
        !has_avx2()
    }

    fn shape() -> impl Strategy<Value = (usize, usize, usize, u64)> {
        (
            0usize..=13,
            0usize..WIDTHS.len(),
            0usize..WIDTHS.len(),
            any::<u64>(),
        )
            .prop_map(|(rows, w, v, seed)| (rows, WIDTHS[w], WIDTHS[v], seed))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn dense_rows_builds_agree(shape in shape(), negative_start in any::<bool>()) {
            if skip() {
                return Ok(());
            }
            let (rows, inner, width, seed) = shape;
            let a = operand(rows, inner, seed);
            let b = operand(inner, width, seed ^ 1);
            let start = if negative_start { -0.0 } else { 0.0 };
            let mut portable = vec![7.0; rows * width];
            dense_rows::portable(&a, inner, &b, width, start, &mut portable);
            let mut avx2 = vec![7.0; rows * width];
            // SAFETY: `skip` returned false, so the CPU has AVX2.
            unsafe { dense_rows::avx2(&a, inner, &b, width, start, &mut avx2) };
            assert_bits(&portable, &avx2, "dense_rows");
        }

        #[test]
        fn transpose_rows_builds_agree(shape in shape(), chunks in 0usize..3) {
            if skip() {
                return Ok(());
            }
            // Up to three row chunks, ending on every remainder of BLOCK.
            let (rows, acols, bcols, seed) = shape;
            let rows = rows + chunks * CHUNK;
            let a = operand(rows, acols, seed);
            let b = operand(rows, bcols, seed ^ 1);
            let mut portable = vec![7.0; acols * bcols];
            transpose_rows::portable(&a, acols, &b, bcols, &mut portable);
            let mut avx2 = vec![7.0; acols * bcols];
            // SAFETY: `skip` returned false, so the CPU has AVX2.
            unsafe { transpose_rows::avx2(&a, acols, &b, bcols, &mut avx2) };
            assert_bits(&portable, &avx2, "transpose_rows");
        }

        #[test]
        fn sparse_products_builds_agree(shape in shape()) {
            if skip() {
                return Ok(());
            }
            let (rows, cols, width, seed) = shape;
            let (row_ptr, col_idx, values) = csr(rows, cols, seed);
            let src = operand(cols, width, seed ^ 1);
            let mut portable = vec![7.0; rows * width];
            spmm::portable(&row_ptr, &col_idx, &values, &src, width, &mut portable);
            let mut avx2 = vec![7.0; rows * width];
            // SAFETY: `skip` returned false, so the CPU has AVX2.
            unsafe { spmm::avx2(&row_ptr, &col_idx, &values, &src, width, &mut avx2) };
            assert_bits(&portable, &avx2, "spmm");

            let subset: Vec<usize> = (0..rows).rev().step_by(2).collect();
            let mut portable = vec![7.0; subset.len() * width];
            spmm_rows::portable(&row_ptr, &col_idx, &values, &src, width, &subset, &mut portable);
            let mut avx2 = vec![7.0; subset.len() * width];
            // SAFETY: `skip` returned false, so the CPU has AVX2.
            unsafe {
                spmm_rows::avx2(&row_ptr, &col_idx, &values, &src, width, &subset, &mut avx2)
            };
            assert_bits(&portable, &avx2, "spmm_rows");
        }

        #[test]
        fn elementwise_builds_agree(shape in shape()) {
            if skip() {
                return Ok(());
            }
            let (rows, _, width, seed) = shape;
            let x = operand(rows, width, seed);
            let bias = operand(1, width, seed ^ 1);

            let mut portable = x.clone();
            bias_relu::portable(&mut portable, &bias);
            let mut avx2 = x.clone();
            // SAFETY: `skip` returned false, so the CPU has AVX2.
            unsafe { bias_relu::avx2(&mut avx2, &bias) };
            assert_bits(&portable, &avx2, "bias_relu");

            let (mut portable, mut keep_portable) = (x.clone(), vec![false; x.len()]);
            bias_relu_mask::portable(&mut portable, &bias, &mut keep_portable);
            let (mut avx2, mut keep_avx2) = (x.clone(), vec![true; x.len()]);
            // SAFETY: `skip` returned false, so the CPU has AVX2.
            unsafe { bias_relu_mask::avx2(&mut avx2, &bias, &mut keep_avx2) };
            assert_bits(&portable, &avx2, "bias_relu_mask");
            assert_eq!(keep_portable, keep_avx2, "bias_relu_mask keep");

            let grad = operand(rows, width, seed ^ 2);
            let mut portable = grad.clone();
            relu_backward::portable(&mut portable, &keep_portable);
            let mut avx2 = grad.clone();
            // SAFETY: `skip` returned false, so the CPU has AVX2.
            unsafe { relu_backward::avx2(&mut avx2, &keep_portable) };
            assert_bits(&portable, &avx2, "relu_backward");

            let mask: Vec<f64> = operand(rows, width, seed ^ 3)
                .iter()
                .map(|&m| if m > 0.0 { 1.0 / 0.7 } else { 0.0 })
                .collect();
            let mut portable = grad.clone();
            scale_by::portable(&mut portable, &mask);
            let mut avx2 = grad.clone();
            // SAFETY: `skip` returned false, so the CPU has AVX2.
            unsafe { scale_by::avx2(&mut avx2, &mask) };
            assert_bits(&portable, &avx2, "scale_by");

            let draws: Vec<f64> = operand(rows, width, seed ^ 4).iter().map(|d| d.abs() / 2.0).collect();
            let (mut portable, mut mask_portable) = (grad.clone(), draws.clone());
            dropout_forward::portable(&mut portable, &mut mask_portable, 0.7, 1.0 / 0.7);
            let (mut avx2, mut mask_avx2) = (grad.clone(), draws);
            // SAFETY: `skip` returned false, so the CPU has AVX2.
            unsafe { dropout_forward::avx2(&mut avx2, &mut mask_avx2, 0.7, 1.0 / 0.7) };
            assert_bits(&portable, &avx2, "dropout_forward values");
            assert_bits(&mask_portable, &mask_avx2, "dropout_forward mask");

            let mut portable = vec![0.0; width];
            column_sums::portable(&grad, width, &mut portable);
            let mut avx2 = vec![0.0; width];
            // SAFETY: `skip` returned false, so the CPU has AVX2.
            unsafe { column_sums::avx2(&grad, width, &mut avx2) };
            assert_bits(&portable, &avx2, "column_sums");
        }
    }

    #[test]
    fn signed_zeros_agree_across_builds() {
        if skip() {
            return;
        }
        // `-0.0 + -0.0 = -0.0` into the ReLU, and all-`-0.0` dot products
        // from a `-0.0` start, must come out the same in both builds.
        let bias = [-0.0; 9];
        let x = vec![-0.0; 5 * 9];
        let mut portable = x.clone();
        bias_relu::portable(&mut portable, &bias);
        let mut avx2 = x.clone();
        // SAFETY: `skip` returned false, so the CPU has AVX2.
        unsafe { bias_relu::avx2(&mut avx2, &bias) };
        assert_bits(&portable, &avx2, "bias_relu on -0.0");

        let a = vec![-0.0; 5 * 3];
        let b = vec![1.0; 3 * 9];
        let mut portable = vec![0.0; 5 * 9];
        dense_rows::portable(&a, 3, &b, 9, -0.0, &mut portable);
        let mut avx2 = vec![0.0; 5 * 9];
        // SAFETY: `skip` returned false, so the CPU has AVX2.
        unsafe { dense_rows::avx2(&a, 3, &b, 9, -0.0, &mut avx2) };
        assert_bits(&portable, &avx2, "dense_rows on -0.0");
        assert!(avx2.iter().all(|v| v.to_bits() == (-0.0f64).to_bits()));
    }
}
