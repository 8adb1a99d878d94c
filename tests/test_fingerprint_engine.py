"""The fingerprint engine on hand-written pages."""

import pytest

from repro.fingerprint import FingerprintEngine, ScriptAccess


@pytest.fixture(scope="module")
def fp(engine):
    def run(html, url="https://www.example.com/"):
        return engine.fingerprint(html, url)

    return run


class TestLibraryDetection:
    def test_jquery_from_filename(self, fp):
        profile = fp('<script src="/js/jquery-1.12.4.min.js"></script>')
        (det,) = profile.libraries
        assert det.library == "jquery"
        assert det.version == "1.12.4"
        assert det.internal

    def test_jquery_family_disambiguation(self, fp):
        html = (
            '<script src="/js/jquery-3.5.1.min.js"></script>'
            '<script src="/js/jquery-migrate-3.3.2.min.js"></script>'
            '<script src="/js/jquery-ui-1.12.1.min.js"></script>'
            '<script src="/js/jquery.cookie-1.4.1.min.js"></script>'
        )
        profile = fp(html)
        found = {d.library: d.version for d in profile.libraries}
        assert found == {
            "jquery": "3.5.1",
            "jquery-migrate": "3.3.2",
            "jquery-ui": "1.12.1",
            "jquery-cookie": "1.4.1",
        }

    def test_cdn_classification(self, fp):
        html = '<script src="https://ajax.googleapis.com/ajax/libs/jquery/1.12.4/jquery.min.js"></script>'
        (det,) = fp(html).libraries
        assert det.external and det.cdn_host == "ajax.googleapis.com"
        assert det.version == "1.12.4"

    def test_wordpress_ver_query(self, fp):
        html = '<script src="/wp-includes/js/jquery/jquery.min.js?ver=1.12.4"></script>'
        (det,) = fp(html).libraries
        assert det.version == "1.12.4"

    def test_unversioned_detection(self, fp):
        html = '<script src="/assets/js/bootstrap.min.js"></script>'
        (det,) = fp(html).libraries
        assert det.library == "bootstrap"
        assert det.version is None

    def test_subdomain_www_is_internal(self, fp):
        html = '<script src="https://www.example.com/js/jquery-1.0.min.js"></script>'
        (det,) = fp(html).libraries
        assert det.internal

    def test_integrity_and_crossorigin(self, fp):
        html = (
            '<script src="https://cdnjs.cloudflare.com/ajax/libs/jquery/3.5.1/jquery.min.js"'
            ' integrity="sha384-abc" crossorigin="anonymous"></script>'
        )
        (det,) = fp(html).libraries
        assert det.has_integrity
        assert det.crossorigin == "anonymous"

    def test_inline_banner(self, fp):
        profile = fp("<script>/*! jQuery v3.3.1 | (c) */ window.$=1;</script>")
        (det,) = profile.libraries
        assert det.library == "jquery"
        assert det.version == "3.3.1"
        assert det.evidence == "inline-banner"

    def test_untrusted_github_host(self, fp):
        html = '<script src="https://blueimp.github.io/lib/x.js" ></script>'
        profile = fp(html)
        assert profile.untrusted_scripts == (
            ("blueimp.github.io", "https://blueimp.github.io/lib/x.js", False),
        )

    def test_untrusted_with_integrity_flag(self, fp):
        html = '<script src="https://a.github.io/x.js" integrity="sha384-x"></script>'
        assert fp(html).untrusted_scripts[0][2] is True


class TestResourceTypes:
    def test_full_mix(self, fp):
        html = (
            '<link rel="stylesheet" href="/s.css">'
            '<link rel="shortcut icon" href="/favicon.ico">'
            '<link rel="alternate" type="application/rss+xml" href="/feed.xml">'
            '<script src="/widgets/a.php"></script>'
            '<img src="/logo.svg">'
            '<script src="/WebResource.axd?d=x"></script>'
        )
        types = fp(html).resource_types
        assert {"css", "favicon", "xml", "imported-html", "svg", "axd", "javascript"} <= types

    def test_inline_style_is_css(self, fp):
        assert "css" in fp("<style>body{}</style>").resource_types

    def test_plain_page_has_no_flash(self, fp):
        assert not fp("<html><body>hi</body></html>").uses_flash


class TestWordPress:
    def test_generator_meta(self, fp):
        html = '<meta name="generator" content="WordPress 5.8.1">'
        assert fp(html).wordpress_version == "5.8.1"

    def test_no_wordpress(self, fp):
        assert fp("<html></html>").wordpress_version is None


class TestFlash:
    def test_object_embed(self, fp):
        html = (
            '<object width="400" height="300">'
            '<param name="movie" value="/m.swf">'
            '<param name="AllowScriptAccess" value="always"></object>'
        )
        profile = fp(html)
        (embed,) = profile.flash_embeds
        assert embed.tag == "object"
        assert embed.insecure
        assert embed.script_access is ScriptAccess.ALWAYS
        assert "flash" in profile.resource_types

    def test_embed_tag(self, fp):
        html = '<embed src="/m.swf" width="10" height="10" allowscriptaccess="never">'
        (embed,) = fp(html).flash_embeds
        assert embed.tag == "embed"
        assert embed.script_access is ScriptAccess.NEVER
        assert not embed.insecure

    def test_unspecified_access(self, fp):
        html = '<embed src="/m.swf" width="10" height="10">'
        (embed,) = fp(html).flash_embeds
        assert not embed.script_access_specified
        assert embed.script_access is None

    def test_invisible_zero_size(self, fp):
        html = '<embed src="/m.swf" width="0" height="0">'
        assert not fp(html).flash_embeds[0].visible

    def test_invisible_css(self, fp):
        html = '<object style="display:none"><param name="movie" value="/m.swf"></object>'
        assert not fp(html).flash_embeds[0].visible

    def test_external_swf(self, fp):
        html = '<embed src="https://other.example/m.swf" width="1" height="1">'
        assert fp(html).flash_embeds[0].external

    def test_param_after_close_with_comment_before(self, fp):
        html = (
            "<!-- old banner -->"
            '<object width="400" height="300"><param name="movie" value="/m.swf">'
            '</object><param name="AllowScriptAccess" value="always">'
        )
        (embed,) = fp(html).flash_embeds
        assert embed.script_access_specified is False
        assert embed.script_access is None


class TestCounts:
    def test_script_counts(self, fp):
        html = (
            '<script src="/a.js"></script>'
            '<script src="https://cdn.example/b.js"></script>'
            "<script>inline()</script>"
        )
        profile = fp(html)
        assert profile.script_count == 2
        assert profile.external_script_count == 1

    def test_as_dict_serializable(self, fp):
        import json

        html = '<script src="/js/jquery-1.12.4.min.js"></script>'
        assert json.dumps(fp(html).as_dict())


class TestAnchorPrefilter:
    """The literal-substring prefilter must never veto a real match."""

    def test_anchors_sound_over_generated_urls(self):
        """For every script URL webgen can emit, prefilter ⊇ match."""
        from repro.config import ScenarioConfig
        from repro.fingerprint.signatures import default_signatures
        from repro.netsim.url import parse_url
        from repro.webgen import WebEcosystem
        from repro.webgen.html import script_url

        signatures = default_signatures()
        ecosystem = WebEcosystem(ScenarioConfig(population=150, seed=42))
        targets = set()
        for domain in ecosystem.population[:150]:
            for ordinal in (0, 80, 200):
                manifest = ecosystem.manifest(domain, ordinal)
                for inclusion in manifest.libraries:
                    url = script_url(inclusion, manifest.wordpress_version)
                    resolved = parse_url(
                        url if "//" in url else f"https://{domain.name}{url}"
                    )
                    target = resolved.path + (
                        "?" + resolved.query if resolved.query else ""
                    )
                    targets.add(
                        (resolved.host, resolved.path, resolved.query,
                         resolved.filename, target)
                    )
        assert len(targets) > 100
        checked = 0
        for host, path, query, filename, target in targets:
            lower = target.lower()
            for signature in signatures:
                if signature.match_url(host, path, query, filename):
                    assert signature.could_match_url(lower), (
                        signature.library, target
                    )
                    checked += 1
        assert checked > 100

    def test_anchor_variants_cover_separator_spellings(self):
        from repro.fingerprint.signatures import default_signatures

        by_name = {s.library: s for s in default_signatures()}
        assert "jquery.ui" in by_name["jquery-ui"].anchors
        assert "jqueryui" in by_name["jquery-ui"].anchors
        assert "require" in by_name["requirejs"].anchors
        # Direct construction (no _sig) leaves anchors empty => no veto.
        from repro.fingerprint import LibrarySignature

        bare = LibrarySignature(library="x", url_patterns=(), token="x")
        assert bare.could_match_url("anything")
