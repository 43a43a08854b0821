//! The benchmark model zoo: the 10 DNNs of the paper's Fig 8, described
//! layer by layer from their published architectures. Its five
//! transformers are also the models of Fig 10, whose attention dimensions
//! come from their [`LayerSpec::Attention`] layers.
//!
//! Shapes follow the standard references (torchvision for the CNNs, the
//! original papers for the transformers). Sequence lengths match typical
//! inference settings: 128 tokens for the BERT family, 197 patches for
//! ViT-Base, 1024 for GPT-2 Large, 2048 for the LLaMA-class model.

use crate::layers::LayerSpec;
use serde::{Deserialize, Serialize};
use yoco_arch::workload::MatmulWorkload;

/// Broad model family (drives reporting splits like Fig 6f's CNN vs
/// transformer groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelClass {
    /// Convolutional network.
    Cnn,
    /// Transformer-based model.
    Transformer,
}

/// A benchmark model: a named sequence of layers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    /// Model name as used in the paper's figures.
    pub name: String,
    /// Model family.
    pub class: ModelClass,
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
}

impl Model {
    /// Lowers every layer to GEMM workloads, in order.
    pub fn workloads(&self) -> Vec<MatmulWorkload> {
        self.layers.iter().flat_map(|l| l.to_workloads()).collect()
    }

    /// Total MACs of one inference.
    pub fn macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs()).sum()
    }

    /// Total weight parameters implied by the static GEMMs.
    pub fn static_weights(&self) -> u64 {
        self.workloads()
            .iter()
            .filter(|w| !w.dynamic_weights)
            .map(|w| w.k * w.n)
            .sum()
    }
}

fn conv(name: &str, in_ch: u64, out_ch: u64, kernel: u64, out_hw: u64) -> LayerSpec {
    LayerSpec::Conv {
        name: name.into(),
        in_ch,
        out_ch,
        kernel,
        out_hw,
    }
}

fn linear(name: &str, in_features: u64, out_features: u64) -> LayerSpec {
    LayerSpec::Linear {
        name: name.into(),
        in_features,
        out_features,
        tokens: 1,
    }
}

fn transformer_blocks(
    layers: &mut Vec<LayerSpec>,
    n_layers: u64,
    seq: u64,
    d_model: u64,
    heads: u64,
    d_ff: u64,
    gated: bool,
) {
    for i in 0..n_layers {
        layers.push(LayerSpec::Attention {
            name: format!("block{i}.attn"),
            seq,
            d_model,
            heads,
        });
        layers.push(LayerSpec::FeedForward {
            name: format!("block{i}.ffn"),
            seq,
            d_model,
            d_ff,
            gated,
        });
    }
}

/// AlexNet (5 conv + 3 FC, ImageNet input).
pub fn alexnet() -> Model {
    Model {
        name: "alexnet".into(),
        class: ModelClass::Cnn,
        layers: vec![
            conv("conv1", 3, 64, 11, 55),
            conv("conv2", 64, 192, 5, 27),
            conv("conv3", 192, 384, 3, 13),
            conv("conv4", 384, 256, 3, 13),
            conv("conv5", 256, 256, 3, 13),
            linear("fc6", 9216, 4096),
            linear("fc7", 4096, 4096),
            linear("fc8", 4096, 1000),
        ],
    }
}

/// VGG-16 (13 conv + 3 FC).
pub fn vgg16() -> Model {
    Model {
        name: "vgg16".into(),
        class: ModelClass::Cnn,
        layers: vec![
            conv("conv1_1", 3, 64, 3, 224),
            conv("conv1_2", 64, 64, 3, 224),
            conv("conv2_1", 64, 128, 3, 112),
            conv("conv2_2", 128, 128, 3, 112),
            conv("conv3_1", 128, 256, 3, 56),
            conv("conv3_2", 256, 256, 3, 56),
            conv("conv3_3", 256, 256, 3, 56),
            conv("conv4_1", 256, 512, 3, 28),
            conv("conv4_2", 512, 512, 3, 28),
            conv("conv4_3", 512, 512, 3, 28),
            conv("conv5_1", 512, 512, 3, 14),
            conv("conv5_2", 512, 512, 3, 14),
            conv("conv5_3", 512, 512, 3, 14),
            linear("fc6", 25088, 4096),
            linear("fc7", 4096, 4096),
            linear("fc8", 4096, 1000),
        ],
    }
}

/// ResNet-18 (conv1 + 8 basic blocks with downsample projections + FC).
pub fn resnet18() -> Model {
    let mut layers = vec![conv("conv1", 3, 64, 7, 112)];
    let stages: [(u64, u64, u64); 4] = [(64, 64, 56), (64, 128, 28), (128, 256, 14), (256, 512, 7)];
    for (s, &(in_ch, out_ch, hw)) in stages.iter().enumerate() {
        for b in 0..2u64 {
            let cin = if b == 0 { in_ch } else { out_ch };
            layers.push(conv(
                &format!("layer{}.{b}.conv1", s + 1),
                cin,
                out_ch,
                3,
                hw,
            ));
            layers.push(conv(
                &format!("layer{}.{b}.conv2", s + 1),
                out_ch,
                out_ch,
                3,
                hw,
            ));
            if b == 0 && in_ch != out_ch {
                layers.push(conv(
                    &format!("layer{}.{b}.down", s + 1),
                    in_ch,
                    out_ch,
                    1,
                    hw,
                ));
            }
        }
    }
    layers.push(linear("fc", 512, 1000));
    Model {
        name: "resnet18".into(),
        class: ModelClass::Cnn,
        layers,
    }
}

/// MobileNetV3-Large (inverted residual bottlenecks with depthwise convs).
pub fn mobilenet_v3() -> Model {
    let mut layers = vec![conv("stem", 3, 16, 3, 112)];
    // (in_ch, expanded, out_ch, kernel, out_hw) per bottleneck, following the
    // MobileNetV3-Large table.
    let blocks: [(u64, u64, u64, u64, u64); 15] = [
        (16, 16, 16, 3, 112),
        (16, 64, 24, 3, 56),
        (24, 72, 24, 3, 56),
        (24, 72, 40, 5, 28),
        (40, 120, 40, 5, 28),
        (40, 120, 40, 5, 28),
        (40, 240, 80, 3, 14),
        (80, 200, 80, 3, 14),
        (80, 184, 80, 3, 14),
        (80, 184, 80, 3, 14),
        (80, 480, 112, 3, 14),
        (112, 672, 112, 3, 14),
        (112, 672, 160, 5, 7),
        (160, 960, 160, 5, 7),
        (160, 960, 160, 5, 7),
    ];
    for (i, &(in_ch, exp, out_ch, k, hw)) in blocks.iter().enumerate() {
        if exp != in_ch {
            layers.push(conv(&format!("bneck{i}.expand"), in_ch, exp, 1, hw));
        }
        layers.push(LayerSpec::Depthwise {
            name: format!("bneck{i}.dw"),
            ch: exp,
            kernel: k,
            out_hw: hw,
        });
        layers.push(conv(&format!("bneck{i}.project"), exp, out_ch, 1, hw));
    }
    layers.push(conv("head.conv", 160, 960, 1, 7));
    layers.push(linear("head.fc1", 960, 1280));
    layers.push(linear("head.fc2", 1280, 1000));
    Model {
        name: "mobilenet_v3".into(),
        class: ModelClass::Cnn,
        layers,
    }
}

/// DenseNet-201 (growth 32, blocks of 6/12/48/32 bottleneck layers).
pub fn densenet201() -> Model {
    let growth = 32u64;
    let mut layers = vec![conv("stem", 3, 64, 7, 112)];
    let mut channels = 64u64;
    let block_sizes = [6u64, 12, 48, 32];
    let spatial = [56u64, 28, 14, 7];
    for (b, (&n_layers, &hw)) in block_sizes.iter().zip(&spatial).enumerate() {
        for l in 0..n_layers {
            layers.push(conv(
                &format!("dense{b}.{l}.bottleneck"),
                channels,
                4 * growth,
                1,
                hw,
            ));
            layers.push(conv(
                &format!("dense{b}.{l}.conv"),
                4 * growth,
                growth,
                3,
                hw,
            ));
            channels += growth;
        }
        if b < 3 {
            // Transition layer halves channels and spatial size.
            layers.push(conv(&format!("trans{b}"), channels, channels / 2, 1, hw));
            channels /= 2;
        }
    }
    layers.push(linear("fc", channels, 1000));
    Model {
        name: "densenet201".into(),
        class: ModelClass::Cnn,
        layers,
    }
}

/// MobileBERT (24 thin transformer layers, d=512, 4 heads, seq 128).
pub fn mobilebert() -> Model {
    let mut layers = vec![linear("embed_proj", 384, 512)];
    transformer_blocks(&mut layers, 24, 128, 512, 4, 512, false);
    layers.push(linear("pooler", 512, 512));
    Model {
        name: "mobilebert".into(),
        class: ModelClass::Transformer,
        layers,
    }
}

/// QDQBERT (quantized BERT-base: 12 layers, d=768, 12 heads, seq 128).
pub fn qdqbert() -> Model {
    let mut layers = Vec::new();
    transformer_blocks(&mut layers, 12, 128, 768, 12, 3072, false);
    layers.push(linear("pooler", 768, 768));
    Model {
        name: "qdqbert".into(),
        class: ModelClass::Transformer,
        layers,
    }
}

/// ViT-Base/16 (patch embedding + 12 layers, d=768, 12 heads, 197 tokens).
pub fn vit_base() -> Model {
    let mut layers = vec![conv("patch_embed", 3, 768, 16, 14)];
    transformer_blocks(&mut layers, 12, 197, 768, 12, 3072, false);
    layers.push(linear("head", 768, 1000));
    Model {
        name: "vision_transformer".into(),
        class: ModelClass::Transformer,
        layers,
    }
}

/// GPT-2 Large (36 layers, d=1280, 20 heads, seq 1024) — the `gpt_large`
/// entry of Fig 10.
pub fn gpt_large() -> Model {
    let mut layers = Vec::new();
    transformer_blocks(&mut layers, 36, 1024, 1280, 20, 5120, false);
    layers.push(linear("lm_head", 1280, 50257));
    Model {
        name: "gpt_large".into(),
        class: ModelClass::Transformer,
        layers,
    }
}

/// LLaMA-class 7B decoder (32 layers, d=4096, 32 heads, gated FFN 11008,
/// seq 2048) — the paper's `llama3_7b` benchmark.
pub fn llama3_7b() -> Model {
    let mut layers = Vec::new();
    transformer_blocks(&mut layers, 32, 2048, 4096, 32, 11008, true);
    layers.push(linear("lm_head", 4096, 32000));
    Model {
        name: "llama3_7b".into(),
        class: ModelClass::Transformer,
        layers,
    }
}

/// The ten benchmarks of Fig 8, in the paper's order.
pub fn fig8_benchmarks() -> Vec<Model> {
    vec![
        alexnet(),
        vgg16(),
        resnet18(),
        mobilenet_v3(),
        densenet201(),
        mobilebert(),
        qdqbert(),
        vit_base(),
        gpt_large(),
        llama3_7b(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_has_ten_models_in_paper_order() {
        let zoo = fig8_benchmarks();
        assert_eq!(zoo.len(), 10);
        let names: Vec<_> = zoo.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "alexnet",
                "vgg16",
                "resnet18",
                "mobilenet_v3",
                "densenet201",
                "mobilebert",
                "qdqbert",
                "vision_transformer",
                "gpt_large",
                "llama3_7b"
            ]
        );
        assert_eq!(zoo.iter().filter(|m| m.class == ModelClass::Cnn).count(), 5);
    }

    #[test]
    fn alexnet_macs_match_published_count() {
        // AlexNet is ~0.7 GMACs.
        let m = alexnet().macs() as f64;
        assert!(m > 0.5e9 && m < 0.9e9, "alexnet {m} MACs");
    }

    #[test]
    fn vgg16_macs_match_published_count() {
        // VGG-16 is ~15.5 GMACs.
        let m = vgg16().macs() as f64;
        assert!(m > 14.0e9 && m < 16.5e9, "vgg16 {m} MACs");
    }

    #[test]
    fn resnet18_macs_match_published_count() {
        // ResNet-18 is ~1.8 GMACs.
        let m = resnet18().macs() as f64;
        assert!(m > 1.5e9 && m < 2.1e9, "resnet18 {m} MACs");
    }

    #[test]
    fn mobilenet_is_the_lightest_cnn() {
        let mb = mobilenet_v3().macs();
        for m in [alexnet(), vgg16(), resnet18(), densenet201()] {
            assert!(mb < m.macs(), "mobilenet vs {}", m.name);
        }
        // ~0.2-0.35 GMACs published.
        assert!((mb as f64) < 0.5e9, "mobilenet {mb}");
    }

    #[test]
    fn densenet201_macs_match_published_count() {
        // DenseNet-201 is ~4.3 GMACs.
        let m = densenet201().macs() as f64;
        assert!(m > 3.5e9 && m < 5.5e9, "densenet {m} MACs");
    }

    #[test]
    fn bert_base_shapes() {
        let q = qdqbert();
        // BERT-base encoder at seq 128 is ~11 GMACs (incl. attention).
        let m = q.macs() as f64;
        assert!(m > 8.0e9 && m < 15.0e9, "qdqbert {m} MACs");
        // 12 layers x (6 attn + 2 ffn) + pooler GEMMs.
        assert_eq!(q.workloads().len(), 12 * 8 + 1);
    }

    #[test]
    fn llama_has_gated_ffn_and_dynamic_attention() {
        let l = llama3_7b();
        let w = l.workloads();
        let gates = w.iter().filter(|x| x.name.ends_with(".gate")).count();
        assert_eq!(gates, 32);
        let dynamic = w.iter().filter(|x| x.dynamic_weights).count();
        assert_eq!(dynamic, 64); // scores + context per layer
                                 // ~7B static parameters (attention + FFN + head).
        let params = l.static_weights() as f64;
        assert!(params > 5.5e9 && params < 8.0e9, "llama params {params}");
    }

    #[test]
    fn transformers_have_dynamic_share() {
        let transformers: Vec<Model> = fig8_benchmarks()
            .into_iter()
            .filter(|m| m.class == ModelClass::Transformer)
            .collect();
        assert_eq!(transformers.len(), 5);
        for m in transformers {
            let w = m.workloads();
            let dyn_macs: u64 = w
                .iter()
                .filter(|x| x.dynamic_weights)
                .map(|x| x.macs())
                .sum();
            assert!(dyn_macs > 0, "{} has no dynamic GEMMs", m.name);
        }
    }
}
