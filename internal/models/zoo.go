package models

import (
	"fmt"

	"mulayer/internal/graph"
	"mulayer/internal/nn"
	"mulayer/internal/quant"
	"mulayer/internal/tensor"
)

// LeNet5 builds the digit-recognition network of Figure 1a: two 5×5
// convolutions with max pooling followed by three fully-connected layers.
// Default input is 1×28×28, 10 classes.
func LeNet5(cfg Config) (*Model, error) {
	m := newBuilder("lenet5", cfg)
	hw := cfg.inputHW(28)
	in := m.input(tensor.Shape{N: 1, C: 1, H: hw, W: hw})
	x := m.conv("conv1", in, m.sc(6), 5, 1, 2, 1, quant.ActReLU)
	x = m.maxPool("pool1", x, 2, 2, 0)
	x = m.conv("conv2", x, m.sc(16), 5, 1, 0, 1, quant.ActReLU)
	x = m.maxPool("pool2", x, 2, 2, 0)
	x = m.fc("fc1", x, m.sc(120), quant.ActReLU)
	x = m.fc("fc2", x, m.sc(84), quant.ActReLU)
	x = m.fc("fc3", x, cfg.classes(10), quant.ActNone)
	x = m.softmax("prob", x)
	return m.finish("LeNet-5", x, tensor.Shape{N: 1, C: 1, H: hw, W: hw}, false)
}

// AlexNet builds the 2012 ImageNet network (Table 1: "early NN with large
// filter sizes"), including its grouped convolutions and LRN layers.
// Default input is 3×227×227, 1000 classes.
func AlexNet(cfg Config) (*Model, error) {
	m := newBuilder("alexnet", cfg)
	hw := cfg.inputHW(227)
	shape := tensor.Shape{N: 1, C: 3, H: hw, W: hw}
	in := m.input(shape)
	x := m.conv("conv1", in, m.sc(96), 11, 4, 0, 1, quant.ActReLU)
	x = m.lrn("norm1", x)
	x = m.maxPool("pool1", x, 3, 2, 0)
	x = m.convGrouped("conv2", x, m.sc(256), 5, 1, 2, 2, quant.ActReLU)
	x = m.lrn("norm2", x)
	x = m.maxPool("pool2", x, 3, 2, 0)
	x = m.conv("conv3", x, m.sc(384), 3, 1, 1, 1, quant.ActReLU)
	x = m.convGrouped("conv4", x, m.sc(384), 3, 1, 1, 2, quant.ActReLU)
	x = m.convGrouped("conv5", x, m.sc(256), 3, 1, 1, 2, quant.ActReLU)
	x = m.maxPool("pool5", x, 3, 2, 0)
	x = m.fc("fc6", x, m.sc(4096), quant.ActReLU)
	x = m.fc("fc7", x, m.sc(4096), quant.ActReLU)
	x = m.fc("fc8", x, cfg.classes(1000), quant.ActNone)
	x = m.softmax("prob", x)
	return m.finish("AlexNet", x, shape, false)
}

// VGG16 builds configuration D of Simonyan & Zisserman (Table 1: "early NN
// with large filter sizes" — large in compute, uniform 3×3 kernels).
// Default input is 3×224×224, 1000 classes.
func VGG16(cfg Config) (*Model, error) {
	m := newBuilder("vgg16", cfg)
	hw := cfg.inputHW(224)
	shape := tensor.Shape{N: 1, C: 3, H: hw, W: hw}
	in := m.input(shape)
	x := in
	blocks := []struct {
		convs int
		c     int
	}{{2, 64}, {2, 128}, {3, 256}, {3, 512}, {3, 512}}
	for bi, blk := range blocks {
		for ci := 0; ci < blk.convs; ci++ {
			x = m.conv(fmt.Sprintf("conv%d_%d", bi+1, ci+1), x, m.sc(blk.c), 3, 1, 1, 1, quant.ActReLU)
		}
		x = m.maxPool(fmt.Sprintf("pool%d", bi+1), x, 2, 2, 0)
	}
	x = m.fc("fc6", x, m.sc(4096), quant.ActReLU)
	x = m.fc("fc7", x, m.sc(4096), quant.ActReLU)
	x = m.fc("fc8", x, cfg.classes(1000), quant.ActNone)
	x = m.softmax("prob", x)
	return m.finish("VGG-16", x, shape, false)
}

// inception adds one GoogLeNet Inception module (Figure 11a): four
// branches — 1×1, 1×1→3×3, 1×1→5×5, and 3×3 maxpool→1×1 — concatenated
// along channels.
func (m *builder) inception(name string, in graphNode, c1, c3r, c3, c5r, c5, pp int) graphNode {
	b0 := m.conv(name+"/1x1", in, m.sc(c1), 1, 1, 0, 1, quant.ActReLU)
	b1 := m.conv(name+"/3x3_reduce", in, m.sc(c3r), 1, 1, 0, 1, quant.ActReLU)
	b1 = m.conv(name+"/3x3", b1, m.sc(c3), 3, 1, 1, 1, quant.ActReLU)
	b2 := m.conv(name+"/5x5_reduce", in, m.sc(c5r), 1, 1, 0, 1, quant.ActReLU)
	b2 = m.conv(name+"/5x5", b2, m.sc(c5), 5, 1, 2, 1, quant.ActReLU)
	b3 := m.maxPool(name+"/pool", in, 3, 1, 1)
	b3 = m.conv(name+"/pool_proj", b3, m.sc(pp), 1, 1, 0, 1, quant.ActReLU)
	return m.concat(name+"/output", b0, b1, b2, b3)
}

// graphNode abbreviates graph.NodeID inside the zoo builders.
type graphNode = graph.NodeID

// GoogLeNet builds the 22-layer Inception v1 network (Table 1: "NN with
// divergent branches"). Default input is 3×224×224, 1000 classes.
func GoogLeNet(cfg Config) (*Model, error) {
	m := newBuilder("googlenet", cfg)
	hw := cfg.inputHW(224)
	shape := tensor.Shape{N: 1, C: 3, H: hw, W: hw}
	in := m.input(shape)
	x := m.conv("conv1/7x7_s2", in, m.sc(64), 7, 2, 3, 1, quant.ActReLU)
	x = m.maxPool("pool1/3x3_s2", x, 3, 2, 1)
	x = m.conv("conv2/3x3_reduce", x, m.sc(64), 1, 1, 0, 1, quant.ActReLU)
	x = m.conv("conv2/3x3", x, m.sc(192), 3, 1, 1, 1, quant.ActReLU)
	x = m.maxPool("pool2/3x3_s2", x, 3, 2, 1)
	x = m.inception("inception_3a", x, 64, 96, 128, 16, 32, 32)
	x = m.inception("inception_3b", x, 128, 128, 192, 32, 96, 64)
	x = m.maxPool("pool3/3x3_s2", x, 3, 2, 1)
	x = m.inception("inception_4a", x, 192, 96, 208, 16, 48, 64)
	x = m.inception("inception_4b", x, 160, 112, 224, 24, 64, 64)
	x = m.inception("inception_4c", x, 128, 128, 256, 24, 64, 64)
	x = m.inception("inception_4d", x, 112, 144, 288, 32, 64, 64)
	x = m.inception("inception_4e", x, 256, 160, 320, 32, 128, 128)
	x = m.maxPool("pool4/3x3_s2", x, 3, 2, 1)
	x = m.inception("inception_5a", x, 256, 160, 320, 32, 128, 128)
	x = m.inception("inception_5b", x, 384, 192, 384, 48, 128, 128)
	x = m.globalAvgPool("pool5", x)
	x = m.fc("loss3/classifier", x, cfg.classes(1000), quant.ActNone)
	x = m.softmax("prob", x)
	return m.finish("GoogLeNet", x, shape, true)
}

// fire adds one SqueezeNet Fire module (Figure 11b): a 1×1 squeeze feeding
// parallel 1×1 and 3×3 expands, concatenated.
func (m *builder) fire(name string, in graphNode, squeeze, expand int) graphNode {
	s := m.conv(name+"/squeeze1x1", in, m.sc(squeeze), 1, 1, 0, 1, quant.ActReLU)
	e1 := m.conv(name+"/expand1x1", s, m.sc(expand), 1, 1, 0, 1, quant.ActReLU)
	e3 := m.conv(name+"/expand3x3", s, m.sc(expand), 3, 1, 1, 1, quant.ActReLU)
	return m.concat(name+"/concat", e1, e3)
}

// SqueezeNetV11 builds SqueezeNet v1.1 (Table 1: "NN with divergent
// branches"). Default input is 3×224×224, 1000 classes.
func SqueezeNetV11(cfg Config) (*Model, error) {
	m := newBuilder("squeezenet11", cfg)
	hw := cfg.inputHW(224)
	shape := tensor.Shape{N: 1, C: 3, H: hw, W: hw}
	in := m.input(shape)
	x := m.conv("conv1", in, m.sc(64), 3, 2, 0, 1, quant.ActReLU)
	x = m.maxPool("pool1", x, 3, 2, 0)
	x = m.fire("fire2", x, 16, 64)
	x = m.fire("fire3", x, 16, 64)
	x = m.maxPool("pool3", x, 3, 2, 0)
	x = m.fire("fire4", x, 32, 128)
	x = m.fire("fire5", x, 32, 128)
	x = m.maxPool("pool5", x, 3, 2, 0)
	x = m.fire("fire6", x, 48, 192)
	x = m.fire("fire7", x, 48, 192)
	x = m.fire("fire8", x, 64, 256)
	x = m.fire("fire9", x, 64, 256)
	x = m.conv("conv10", x, cfg.classes(1000), 1, 1, 0, 1, quant.ActReLU)
	x = m.globalAvgPool("pool10", x)
	x = m.softmax("prob", x)
	return m.finish("SqueezeNet v1.1", x, shape, true)
}

// MobileNetV1 builds the depthwise-separable network (Table 1:
// "small-scale NN aimed at minimizing computation"). Default input is
// 3×224×224, 1000 classes, width multiplier 1.0 (scaled by WidthScale).
func MobileNetV1(cfg Config) (*Model, error) {
	m := newBuilder("mobilenetv1", cfg)
	hw := cfg.inputHW(224)
	shape := tensor.Shape{N: 1, C: 3, H: hw, W: hw}
	in := m.input(shape)
	x := m.conv("conv1", in, m.sc(32), 3, 2, 1, 1, quant.ActReLU6)
	blocks := []struct {
		stride int
		outC   int
	}{
		{1, 64}, {2, 128}, {1, 128}, {2, 256}, {1, 256},
		{2, 512}, {1, 512}, {1, 512}, {1, 512}, {1, 512}, {1, 512},
		{2, 1024}, {1, 1024},
	}
	for i, blk := range blocks {
		x = m.dwconv(fmt.Sprintf("conv_dw_%d", i+2), x, 3, blk.stride, 1, quant.ActReLU6)
		x = m.conv(fmt.Sprintf("conv_pw_%d", i+2), x, m.sc(blk.outC), 1, 1, 0, 1, quant.ActReLU6)
	}
	x = m.globalAvgPool("pool", x)
	x = m.fc("fc", x, cfg.classes(1000), quant.ActNone)
	x = m.softmax("prob", x)
	return m.finish("MobileNet v1", x, shape, false)
}

// basicBlock adds one ResNet basic block: two 3×3 convolutions with a
// residual shortcut (identity, or a 1×1 projection when downsampling) and
// a fused ReLU on the sum.
func (m *builder) basicBlock(name string, in graphNode, outC, stride int) graphNode {
	shortcut := in
	if stride != 1 || m.shapes[in].C != outC {
		shortcut = m.conv(name+"/proj", in, outC, 1, stride, 0, 1, quant.ActNone)
	}
	x := m.conv(name+"/conv1", in, outC, 3, stride, 1, 1, quant.ActReLU)
	x = m.conv(name+"/conv2", x, outC, 3, 1, 1, 1, quant.ActNone)
	return m.add(&nn.Add{LayerName: name + "/add", Act: quant.ActReLU}, shortcut, x)
}

// ResNet18 builds the 18-layer residual network (He et al., one of the
// Figure 10 accuracy families; an extension beyond the paper's Table 1
// zoo). Default input is 3×224×224, 1000 classes.
func ResNet18(cfg Config) (*Model, error) {
	m := newBuilder("resnet18", cfg)
	hw := cfg.inputHW(224)
	shape := tensor.Shape{N: 1, C: 3, H: hw, W: hw}
	in := m.input(shape)
	x := m.conv("conv1", in, m.sc(64), 7, 2, 3, 1, quant.ActReLU)
	x = m.maxPool("pool1", x, 3, 2, 1)
	stages := []struct {
		c      int
		stride int
	}{{64, 1}, {128, 2}, {256, 2}, {512, 2}}
	for si, st := range stages {
		for b := 0; b < 2; b++ {
			stride := 1
			if b == 0 {
				stride = st.stride
			}
			x = m.basicBlock(fmt.Sprintf("layer%d_%d", si+1, b+1), x, m.sc(st.c), stride)
		}
	}
	x = m.globalAvgPool("pool5", x)
	x = m.fc("fc", x, cfg.classes(1000), quant.ActNone)
	x = m.softmax("prob", x)
	return m.finish("ResNet-18", x, shape, false)
}

// Inception3a builds GoogLeNet's first Inception module as a standalone
// network — the Figure 12 branch-distribution scenario. The default input
// is the module's in-situ activation shape, 192×28×28.
func Inception3a(cfg Config) (*Model, error) {
	m := newBuilder("inception3a", cfg)
	hw := cfg.inputHW(28)
	shape := tensor.Shape{N: 1, C: m.sc(192), H: hw, W: hw}
	in := m.input(shape)
	x := m.inception("inception_3a", in, 64, 96, 128, 16, 32, 32)
	return m.finish("Inception(3a)", x, shape, true)
}

// Zoo maps each network's command-line and API name to its builder.
var Zoo = map[string]func(Config) (*Model, error){
	"lenet5":      LeNet5,
	"alexnet":     AlexNet,
	"vgg16":       VGG16,
	"googlenet":   GoogLeNet,
	"squeezenet":  SqueezeNetV11,
	"mobilenet":   MobileNetV1,
	"resnet18":    ResNet18,
	"inception3a": Inception3a,
}

// Evaluated returns the paper's five evaluation NNs (Table 1) in paper
// order: GoogLeNet, SqueezeNet v1.1, VGG-16, AlexNet, MobileNet v1.
func Evaluated(cfg Config) ([]*Model, error) {
	builders := []func(Config) (*Model, error){
		GoogLeNet, SqueezeNetV11, VGG16, AlexNet, MobileNetV1,
	}
	out := make([]*Model, 0, len(builders))
	for _, b := range builders {
		mdl, err := b(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, mdl)
	}
	return out, nil
}
