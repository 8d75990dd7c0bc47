//! Micro-benchmarks of the performance-critical kernels: the functional
//! datapath (fused multiply, array pass, reduction), the mapping, the
//! format codecs, the NoC routers, the NeRF encoding primitives, the
//! quantized-inference activation quantizer, the training MLP's
//! sample-tile layer kernels, the quantized render head and the training
//! step's per-level merge and Adam update. Each `fnr_tensor::simd`-backed
//! bench has a `*_scalar` twin, so a kernel's speedup is the ratio of the
//! two lines; the tile kernels and the render head also have a
//! `*_per_row` line, the per-sample calls they replace.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flexnerfer::FlexibleFormatCodec;
use fnr_hw::TechParams;
use fnr_mac::{FusedMacUnit, MacArray, ReductionTreeKind};
use fnr_nerf::hashgrid::{HashGrid, HashGridConfig};
use fnr_nerf::mlp::{Mlp, QuantScratch, QuantizedMlp, TileHead};
use fnr_nerf::render::{composite, ShadedSample};
use fnr_nerf::vec3::Vec3;
use fnr_noc::Benes;
use fnr_sim::{gustavson_map, partition_passes};
use fnr_tensor::sparse::EncodedMatrix;
use fnr_tensor::{gen, simd, Precision, SparsityFormat, SrCalculator};

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(20);

    // Fused MAC unit: one INT16 multiply through the 16 sub-multipliers.
    let unit = FusedMacUnit::new(Precision::Int16, ReductionTreeKind::SharedShifter);
    g.bench_function("fused_mac_int16_multiply", |b| {
        b.iter(|| unit.multiply_one(black_box(-12345), black_box(31001)))
    });

    // Full functional sparse GEMM through mapping + array + reduction.
    let a = gen::random_sparse_i32(64, 64, 0.7, Precision::Int8, 5);
    let w = gen::random_sparse_i32(64, 64, 0.5, Precision::Int8, 6);
    g.bench_function("functional_sparse_gemm_64x64", |b| {
        b.iter(|| {
            let mapped = gustavson_map(black_box(&a), black_box(&w), 64);
            let arr = MacArray::new(16, 16, Precision::Int8, ReductionTreeKind::SharedShifter);
            let passes = partition_passes(&mapped, arr.lanes());
            arr.execute_passes(&passes, 64 * 64)
        })
    });

    // Benes permutation routing (SIGMA's fabric).
    let benes = Benes::new(64);
    let dest: Vec<usize> = (0..64).rev().collect();
    g.bench_function("benes_route_64", |b| b.iter(|| benes.route(black_box(&dest))));

    // Format codec: online sparsity detection + optimal encode (64x64 tile).
    let tile = gen::random_sparse_i32(64, 64, 0.8, Precision::Int16, 7);
    let mut codec = FlexibleFormatCodec::new(TechParams::CMOS_28NM);
    g.bench_function("codec_encode_online_64x64", |b| {
        b.iter(|| codec.encode_online(black_box(&tile), Precision::Int16))
    });
    let enc = EncodedMatrix::encode(&tile, SparsityFormat::CscCsr, Precision::Int16);
    g.bench_function("codec_decode_csr_64x64", |b| b.iter(|| black_box(&enc).to_dense()));

    // Eq. (4) sparsity-ratio calculator over a 64x64 tile.
    g.bench_function("sr_calculator_64x64", |b| {
        b.iter(|| {
            let mut sr = SrCalculator::new(64);
            sr.feed_matrix(black_box(&tile));
            sr.sparsity_pct()
        })
    });

    // Multi-resolution hash encoding of one point.
    let grid = HashGrid::new(HashGridConfig::small(), 0.1, 3);
    g.bench_function("hashgrid_encode_point", |b| {
        b.iter(|| grid.encode(black_box(Vec3::new(0.3, 0.6, 0.9))))
    });

    // The shipped lookup kernel: 128 samples planned and encoded at one
    // hashed level (2^13 entries, F = 2) through `LevelEncoder::encode`,
    // then the same call under the scalar pin.
    let n = 128;
    let xyz: [Vec<f32>; 3] =
        [0.618f32, 0.414, 0.732].map(|step| (0..n).map(|i| (i as f32 * step + 0.05).fract()).collect());
    let xyz = [&xyz[0][..], &xyz[1][..], &xyz[2][..]];
    let level = grid.config().levels - 1;
    let (encoder, table) = (grid.level_encoder(level), grid.level_table(level));
    let (mut enc, mut idx, mut wts) = (vec![0.0f32; 2 * n], vec![0u32; 8 * n], vec![0.0f32; 8 * n]);
    g.bench_function("hashgrid_level_encode_128", |b| {
        b.iter(|| encoder.encode(table, black_box(xyz), &mut enc, &mut idx, &mut wts))
    });
    simd::force_scalar(true);
    g.bench_function("hashgrid_level_encode_128_scalar", |b| {
        b.iter(|| encoder.encode(table, black_box(xyz), &mut enc, &mut idx, &mut wts))
    });
    simd::force_scalar(false);

    // Static INT8 activation quantizer over one serving (16) and one
    // Fig. 20(a) (32) hidden layer, against its scalar twin.
    for n in [16usize, 32] {
        let acts: Vec<f32> = (0..n).map(|i| i as f32 * 0.37 - 5.0).collect();
        let mut out = vec![0.0f32; n];
        g.bench_function(&format!("quantize_static_{n}"), |b| {
            b.iter(|| simd::quantize_static(&mut out, black_box(&acts), 0.0117, -128.0, 127.0))
        });
        g.bench_function(&format!("quantize_static_{n}_scalar"), |b| {
            b.iter(|| simd::quantize_static_scalar(&mut out, black_box(&acts), 0.0117, -128.0, 127.0))
        });
    }

    // One hash-grid level (2^13 entries × 2 features) of the training
    // step's level phase: the shard-partial merge and the in-place Adam
    // update, against their scalar twins.
    let n = 16384;
    let part: Vec<f32> = (0..n).map(|i| (i % 97) as f32 * 1e-3 - 0.05).collect();
    let mut acc = vec![0.0f32; n];
    g.bench_function("add_assign_16384", |b| b.iter(|| simd::add_assign(&mut acc, black_box(&part))));
    g.bench_function("add_assign_16384_scalar", |b| {
        b.iter(|| simd::add_assign_scalar(&mut acc, black_box(&part)))
    });
    let (mut params, mut m, mut v) = (vec![0.01f32; n], vec![0.0f32; n], vec![0.0f32; n]);
    let (bc1, bc2) = (1.0 - 0.9f32.powi(10), 1.0 - 0.99f32.powi(10));
    g.bench_function("adam_step_16384", |b| {
        b.iter(|| simd::adam_step(&mut params, black_box(&part), &mut m, &mut v, 1e-2, bc1, bc2, 0.9, 0.99, 1e-8))
    });
    g.bench_function("adam_step_16384_scalar", |b| {
        b.iter(|| {
            simd::adam_step_scalar(&mut params, black_box(&part), &mut m, &mut v, 1e-2, bc1, bc2, 0.9, 0.99, 1e-8)
        })
    });

    // The training MLP's layers (Fig. 20(a): 16→32→32→4) on one 32-row
    // ray group: the sample-tile kernels against 32 per-row calls and
    // against their scalar twins.
    let rows = 32;
    for (ins, outs) in [(16usize, 32usize), (32, 32), (32, 4)] {
        let wt: Vec<f32> = (0..ins * outs).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.01).collect();
        let x: Vec<f32> = (0..rows * ins).map(|i| ((i * 13 % 29) as f32 - 9.0) * 0.05).collect();
        let bias: Vec<f32> = (0..outs).map(|i| i as f32 * 0.01).collect();
        let mut out = vec![0.0f32; rows * outs];
        let shape = format!("{ins}x{outs}_32rows");
        g.bench_function(&format!("layer_forward_rows_{shape}"), |b| {
            b.iter(|| simd::layer_forward_rows(&mut out, black_box(&wt), black_box(&x), &bias))
        });
        g.bench_function(&format!("layer_forward_rows_{shape}_per_row"), |b| {
            b.iter(|| {
                for (o, xr) in out.chunks_exact_mut(outs).zip(black_box(&x).chunks_exact(ins)) {
                    simd::layer_forward(o, black_box(&wt), xr, &bias);
                }
            })
        });
        g.bench_function(&format!("layer_forward_rows_{shape}_scalar"), |b| {
            b.iter(|| simd::layer_forward_rows_scalar(&mut out, black_box(&wt), black_box(&x), &bias))
        });

        // Backward through the same layer: `w` is `outs × ins`, and about
        // half of each delta row is ReLU-masked to zero.
        let delta: Vec<f32> =
            (0..rows * outs).map(|i| if i % 2 == 0 { 0.0 } else { (i % 7) as f32 * 0.1 - 0.3 }).collect();
        let mut wg = vec![0.0f32; ins * outs];
        let mut d_in = vec![0.0f32; rows * ins];
        g.bench_function(&format!("layer_backward_rows_{shape}"), |b| {
            b.iter(|| simd::layer_backward_rows(&mut d_in, black_box(&wt), &mut wg, black_box(&delta), &x, rows))
        });
        g.bench_function(&format!("layer_backward_rows_{shape}_per_row"), |b| {
            b.iter(|| {
                for (r, d) in d_in.chunks_exact_mut(ins).enumerate() {
                    let xr = &x[r * ins..][..ins];
                    simd::layer_backward(d, black_box(&wt), &mut wg, &delta[r * outs..][..outs], xr);
                }
            })
        });
        g.bench_function(&format!("layer_backward_rows_{shape}_scalar"), |b| {
            b.iter(|| {
                simd::layer_backward_rows_scalar(&mut d_in, black_box(&wt), &mut wg, black_box(&delta), &x, rows)
            })
        });
    }

    // The serving model's calibrated INT8 head (16→16→16→4) on one
    // 32-row render tile, against 32 per-sample `forward_into` calls.
    let mlp = Mlp::new(&[16, 16, 16, 4], 5);
    let x: Vec<f32> = (0..32 * 16).map(|i| ((i * 13 % 29) as f32 - 9.0) * 0.05).collect();
    let mut head = QuantizedMlp::quantize(&mlp, Precision::Int8);
    head.calibrate(&mlp, &x.chunks_exact(16).map(<[f32]>::to_vec).collect::<Vec<_>>());
    let mut scratch = QuantScratch::default();
    g.bench_function("quant_head_int8_16x16x16x4_32rows", |b| {
        b.iter(|| black_box(head.forward_tile(black_box(&x), &mut scratch).len()))
    });
    g.bench_function("quant_head_int8_16x16x16x4_32rows_per_row", |b| {
        b.iter(|| {
            for xr in black_box(&x).chunks_exact(16) {
                black_box(head.forward_into(xr, &mut scratch).len());
            }
        })
    });

    // Volume rendering compositing over 32 samples.
    let samples: Vec<ShadedSample> = (0..32)
        .map(|i| ShadedSample {
            sigma: (i % 5) as f32,
            color: [0.5, 0.4, 0.3],
            delta: 0.03,
        })
        .collect();
    g.bench_function("composite_32_samples", |b| b.iter(|| composite(black_box(&samples))));

    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
