#include "gpu/ref_renderer.hh"

#include <cstring>

#include "emu/clipper_emulator.hh"
#include "emu/fragment_op_emulator.hh"
#include "emu/rasterizer_emulator.hh"
#include "emu/texture_emulator.hh"
#include "gpu/framebuffer.hh"

namespace attila::gpu
{

using emu::FragmentOpEmulator;
using emu::RasterizerEmulator;
using emu::TextureEmulator;
using emu::Vec4;

RefRenderer::RefRenderer(u32 memory_size)
    : _memory(std::make_unique<emu::GpuMemory>(memory_size))
{
}

void
RefRenderer::execute(const CommandList& list)
{
    for (const Command& cmd : list) {
        switch (cmd.op) {
          case CommandOp::WriteReg:
            applyRegister(_state, cmd.reg, cmd.regIndex, cmd.value);
            break;
          case CommandOp::WriteBuffer:
            _memory->write(cmd.address,
                           static_cast<u32>(cmd.data->size()),
                           cmd.data->data());
            break;
          case CommandOp::LoadVertexProgram:
            _state.vertexProgram = cmd.program;
            emu::ShaderEmulator::applyLiterals(
                *cmd.program, _state.vertexConstants);
            break;
          case CommandOp::LoadFragmentProgram:
            _state.fragmentProgram = cmd.program;
            emu::ShaderEmulator::applyLiterals(
                *cmd.program, _state.fragmentConstants);
            break;
          case CommandOp::Draw:
            draw(cmd.draw);
            break;
          case CommandOp::ClearColor:
            clearColor();
            break;
          case CommandOp::ClearZStencil:
            clearZStencil();
            break;
          case CommandOp::Swap:
            swap();
            break;
        }
    }
}

u32
RefRenderer::fetchIndex(u32 i) const
{
    if (!_state.indexStream.enabled)
        return i;
    if (_state.indexStream.wide) {
        return _memory->readAs<u32>(_state.indexStream.address +
                                    i * 4);
    }
    return _memory->readAs<u16>(_state.indexStream.address + i * 2);
}

Vec4
RefRenderer::fetchAttribute(u32 stream, u32 index) const
{
    const VertexStream& vs = _state.streams[stream];
    const u32 addr = vs.address + index * vs.stride;
    Vec4 v(0.0f, 0.0f, 0.0f, 1.0f);
    u8 bytes[16];
    _memory->read(addr, streamFormatBytes(vs.format), bytes);
    switch (vs.format) {
      case StreamFormat::Float4:
        std::memcpy(&v.w, bytes + 12, 4);
        [[fallthrough]];
      case StreamFormat::Float3:
        std::memcpy(&v.z, bytes + 8, 4);
        [[fallthrough]];
      case StreamFormat::Float2:
        std::memcpy(&v.y, bytes + 4, 4);
        [[fallthrough]];
      case StreamFormat::Float1:
        std::memcpy(&v.x, bytes, 4);
        break;
      case StreamFormat::UByte4N:
        v = {bytes[0] / 255.0f, bytes[1] / 255.0f, bytes[2] / 255.0f,
             bytes[3] / 255.0f};
        break;
    }
    return v;
}

RefRenderer::ShadedVertex
RefRenderer::shadeVertex(u32 index)
{
    if (!_state.vertexProgram)
        fatal("RefRenderer: draw without a vertex program");
    // One live lane of the quad interpreter; the done lanes are
    // never read or written, so only lane 0 is reset.
    std::array<emu::ShaderThreadState, 4>& lanes = _vertexLanes;
    lanes[0].reset();
    for (u32 s = 0; s < maxVertexStreams; ++s) {
        if (_state.streams[s].enabled)
            lanes[0].in[s] = fetchAttribute(s, index);
    }
    auto noTexture = [](u32, emu::TexTarget,
                        const std::array<Vec4, 4>&, u8, f32,
                        bool) -> std::array<Vec4, 4> {
        panic("RefRenderer: texture fetch in a vertex program");
    };
    const emu::QuadSampler sampler = noTexture;
    std::array<bool, 4> laneDone{false, true, true, true};
    std::array<bool, 4> killed{};
    _emulator.runQuad(_decodeCache.get(_state.vertexProgram),
                      _state.vertexConstants, lanes, laneDone, killed,
                      sampler);
    ShadedVertex out;
    out.out = lanes[0].out;
    return out;
}

void
RefRenderer::shadeQuad(std::array<emu::ShaderThreadState, 4>& lanes,
                       std::array<bool, 4>& killed) const
{
    // Quad-lockstep execution with quad-context texture sampling,
    // exactly as the shader units + texture units do it: project,
    // compute the shared footprint, then plan and execute each live
    // lane's sample with one decoded-block cache per quad (pure
    // memoization).
    auto quadSample = [&](u32 unit, emu::TexTarget,
                          const std::array<Vec4, 4>& rawCoords,
                          u8 liveMask, f32 lodBias,
                          bool projected) -> std::array<Vec4, 4> {
        std::array<Vec4, 4> coords = rawCoords;
        if (projected) {
            for (u32 l = 0; l < 4; ++l) {
                const f32 q = coords[l].w != 0.0f ? coords[l].w : 1.0f;
                coords[l] = {coords[l].x / q, coords[l].y / q,
                             coords[l].z / q, 1.0f};
            }
        }
        const emu::TextureDescriptor& desc = _state.textures[unit];
        u32 aniso;
        f32 lod;
        Vec4 majorAxis;
        TextureEmulator::quadFootprint(desc, coords, lodBias, aniso,
                                       lod, majorAxis);
        std::array<Vec4, 4> texels{};
        emu::TexBlockCache blockCache;
        for (u32 l = 0; l < 4; ++l) {
            if (!(liveMask & (1u << l)))
                continue;
            texels[l] = TextureEmulator::executePlan(
                desc,
                TextureEmulator::planSample(desc, coords[l], lod, aniso,
                                            majorAxis),
                *_memory, &blockCache);
        }
        return texels;
    };
    const emu::QuadSampler sampler = quadSample;
    std::array<bool, 4> laneDone{};
    _emulator.runQuad(_decodeCache.get(_state.fragmentProgram),
                      _state.fragmentConstants, lanes, laneDone, killed,
                      sampler);
}

void
RefRenderer::drawTriangle(const ShadedVertex& v0,
                          const ShadedVertex& v1,
                          const ShadedVertex& v2)
{
    using namespace emu::regix;

    const Vec4& p0 = v0.out[vposPosition];
    const Vec4& p1 = v1.out[vposPosition];
    const Vec4& p2 = v2.out[vposPosition];

    if (emu::ClipperEmulator::trivialReject(p0, p1, p2))
        return;

    bool cullCcw = false, cullCw = false;
    switch (_state.cull) {
      case CullMode::None:
        break;
      case CullMode::Front:
        (_state.frontFaceCcw ? cullCcw : cullCw) = true;
        break;
      case CullMode::Back:
        (_state.frontFaceCcw ? cullCw : cullCcw) = true;
        break;
      case CullMode::FrontAndBack:
        cullCcw = cullCw = true;
        break;
    }

    const auto setup = RasterizerEmulator::setup(
        p0, p1, p2, _state.viewport, cullCcw, cullCw);
    if (!setup.valid)
        return;
    const bool backFacing = setup.ccw != _state.frontFaceCcw;

    const bool writesDepth =
        _state.fragmentProgram &&
        (_state.fragmentProgram->outputsWritten &
         (1u << foutDepth));
    const u32 inputsRead = _state.fragmentProgram
                               ? _state.fragmentProgram->inputsRead
                               : 0u;

    RasterizerEmulator::traverseScanline(
        setup, fbTileDim, [&](s32 tx, s32 ty) {
            for (u32 qy = 0; qy < fbTileDim / 2; ++qy) {
                for (u32 qx = 0; qx < fbTileDim / 2; ++qx) {
                    const s32 x0 = tx + static_cast<s32>(qx * 2);
                    const s32 y0 = ty + static_cast<s32>(qy * 2);

                    std::array<bool, 4> cover{};
                    std::array<f32, 4> depth{};
                    std::array<emu::ShaderThreadState, 4> lanes;
                    bool any = false;
                    for (u32 f = 0; f < 4; ++f) {
                        const s32 x = x0 + static_cast<s32>(f % 2);
                        const s32 y = y0 + static_cast<s32>(f / 2);
                        const auto frag =
                            RasterizerEmulator::evalFragment(setup,
                                                             x, y);
                        bool inside = frag.inside;
                        if (x < 0 || y < 0 ||
                            x >= static_cast<s32>(_state.width) ||
                            y >= static_cast<s32>(_state.height)) {
                            inside = false;
                        }
                        if (inside && _state.scissor.enabled) {
                            const ScissorState& sc = _state.scissor;
                            if (x < sc.x || y < sc.y ||
                                x >= sc.x +
                                         static_cast<s32>(sc.width) ||
                                y >= sc.y +
                                         static_cast<s32>(
                                             sc.height)) {
                                inside = false;
                            }
                        }
                        cover[f] = inside;
                        any |= inside;
                        depth[f] = frag.z;

                        // Interpolate inputs for every lane (helper
                        // pixels included).
                        lanes[f].reset();
                        for (u32 attr = 1; attr < numInputRegs;
                             ++attr) {
                            if (!(inputsRead & (1u << attr)))
                                continue;
                            lanes[f].in[attr] =
                                RasterizerEmulator::interpolate(
                                    frag.edge, v0.out[attr],
                                    v1.out[attr], v2.out[attr]);
                        }
                        lanes[f].in[finPosition] = {
                            static_cast<f32>(x) + 0.5f,
                            static_cast<f32>(y) + 0.5f, frag.z,
                            RasterizerEmulator::oneOverW(setup,
                                                         frag.edge)};
                    }
                    if (!any)
                        continue;

                    std::array<bool, 4> killed{};
                    if (!_state.fragmentProgram)
                        fatal("RefRenderer: draw without a fragment"
                              " program");
                    shadeQuad(lanes, killed);

                    for (u32 f = 0; f < 4; ++f) {
                        if (!cover[f] || killed[f])
                            continue;
                        const u32 x =
                            static_cast<u32>(x0) + (f % 2);
                        const u32 y =
                            static_cast<u32>(y0) + (f / 2);

                        f32 z = depth[f];
                        if (writesDepth)
                            z = lanes[f].out[foutDepth].x;

                        // Z / stencil.
                        const emu::ZStencilState& zs =
                            _state.zStencil;
                        if (zs.depthTest || zs.stencilTest) {
                            const u32 addr = fbPixelAddress(
                                _state.zStencilBufferAddress,
                                _state.width, x, y);
                            const u32 stored =
                                _memory->readAs<u32>(addr);
                            const auto result =
                                FragmentOpEmulator::zStencilTest(
                                    zs, emu::quantizeDepth(z),
                                    stored, backFacing);
                            if (result.newZS != stored)
                                _memory->writeAs<u32>(addr,
                                                      result.newZS);
                            if (!result.pass)
                                continue;
                        }

                        // Colour.
                        if (_state.blend.colorMask == 0)
                            continue;
                        const u32 caddr = fbPixelAddress(
                            _state.colorBufferAddress, _state.width,
                            x, y);
                        const u32 storedColor =
                            _memory->readAs<u32>(caddr);
                        const u32 updated =
                            FragmentOpEmulator::colorWrite(
                                _state.blend,
                                lanes[f].out[foutColor],
                                storedColor);
                        if (updated != storedColor)
                            _memory->writeAs<u32>(caddr, updated);
                    }
                }
            }
        });
}

void
RefRenderer::draw(const DrawParams& params)
{
    // Shade every vertex of the batch once (the post-shading vertex
    // cache makes the timing path equivalent).
    std::vector<ShadedVertex> shaded;
    shaded.reserve(params.count);
    for (u32 i = 0; i < params.count; ++i) {
        const u32 seq = _state.indexStream.enabled
                            ? i
                            : params.first + i;
        shaded.push_back(shadeVertex(fetchIndex(seq)));
    }

    auto tri = [&](u32 a, u32 b, u32 c) {
        drawTriangle(shaded[a], shaded[b], shaded[c]);
    };

    const u32 n = params.count;
    switch (params.primitive) {
      case Primitive::Triangles:
        for (u32 i = 0; i + 2 < n; i += 3)
            tri(i, i + 1, i + 2);
        break;
      case Primitive::TriangleStrip:
        for (u32 i = 0; i + 2 < n; ++i) {
            if (i % 2 == 0)
                tri(i, i + 1, i + 2);
            else
                tri(i + 1, i, i + 2);
        }
        break;
      case Primitive::TriangleFan:
        for (u32 i = 1; i + 1 < n; ++i)
            tri(0, i, i + 1);
        break;
      case Primitive::Quads:
        for (u32 i = 0; i + 3 < n; i += 4) {
            tri(i, i + 1, i + 2);
            tri(i, i + 2, i + 3);
        }
        break;
      case Primitive::QuadStrip:
        for (u32 i = 0; i + 3 < n; i += 2) {
            tri(i, i + 1, i + 3);
            tri(i, i + 3, i + 2);
        }
        break;
    }
}

void
RefRenderer::clearColor()
{
    const u32 word =
        FragmentOpEmulator::packRgba8(_state.clearColor);
    const u32 bytes = fbSurfaceBytes(_state.width, _state.height);
    for (u32 off = 0; off < bytes; off += 4)
        _memory->writeAs<u32>(_state.colorBufferAddress + off, word);
}

void
RefRenderer::clearZStencil()
{
    const u32 word = emu::packDepthStencil(
        emu::quantizeDepth(_state.clearDepth), _state.clearStencil);
    const u32 bytes = fbSurfaceBytes(_state.width, _state.height);
    for (u32 off = 0; off < bytes; off += 4) {
        _memory->writeAs<u32>(_state.zStencilBufferAddress + off,
                              word);
    }
}

void
RefRenderer::swap()
{
    FrameImage frame;
    frame.width = _state.width;
    frame.height = _state.height;
    frame.pixels.assign(static_cast<std::size_t>(_state.width) *
                            _state.height,
                        0);
    for (u32 y = 0; y < _state.height; ++y) {
        for (u32 x = 0; x < _state.width; ++x) {
            frame.pixels[y * _state.width + x] =
                _memory->readAs<u32>(fbPixelAddress(
                    _state.colorBufferAddress, _state.width, x, y));
        }
    }
    _frames.push_back(std::move(frame));
}

} // namespace attila::gpu
